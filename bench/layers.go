package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/hdls"
	"repro/internal/castore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// layerCounts sums the deterministic per-cell counters the served cell
// lines carry: chunks handed out per level, and RMA lock attempts and
// acquisitions of MPI+MPI cells.
type layerCounts struct {
	cells, mpiCells            int
	globalChunks, subChunks    int64
	lockAttempts, lockAcquired int64
}

func (l *layerCounts) addLine(c cell, line []byte) {
	var v struct {
		Summary struct {
			GlobalChunks     int64 `json:"global_chunks"`
			LocalChunks      int64 `json:"local_chunks"`
			LockAttempts     int64 `json:"lock_attempts"`
			LockAcquisitions int64 `json:"lock_acquisitions"`
		} `json:"summary"`
	}
	if json.Unmarshal(line, &v) != nil {
		return // the oracle already passed the line; it parses
	}
	l.cells++
	l.globalChunks += v.Summary.GlobalChunks
	l.subChunks += v.Summary.LocalChunks
	if c.cfg.Approach == hdls.MPIMPI {
		l.mpiCells++
		l.lockAttempts += v.Summary.LockAttempts
		l.lockAcquired += v.Summary.LockAcquisitions
	}
}

// probeSim times the DES kernel alone: a chain of 2^20 callback events
// with 256 pending at any time, the rank count of a 16-node cell. It
// returns the median ns per event of three runs.
func probeSim(tr *tracer) float64 {
	const pending, events = 256, 1 << 20
	var runs []float64
	for rep := 0; rep < 3; rep++ {
		eng := sim.NewEngine(1)
		fired := 0
		for i := 0; i < pending; i++ {
			d := sim.Time(i%17+1) * sim.Microsecond
			var fn func()
			fn = func() {
				fired++
				if fired < events {
					eng.Schedule(eng.Now()+d, fn)
				}
			}
			eng.Schedule(d, fn)
		}
		var err error
		took := tr.timed(0, 0, "sim.Engine.Run", func() { err = eng.Run() })
		if err != nil || fired == 0 {
			return 0
		}
		runs = append(runs, float64(took.Nanoseconds())/float64(fired))
	}
	return median(runs)
}

// coreProbe is one single-threaded in-process pass over a workload's cells.
type coreProbe struct {
	mpiMS, openmpMS []float64         // per-cell hdls.RunSummary wall time
	total           time.Duration     // the whole pass
	sums            map[string][]byte // hash → summary JSON, as the daemon stores it
}

// probeCore runs hdls.RunSummary on every cell, one at a time.
func probeCore(tr *tracer, cells []cell) (*coreProbe, error) {
	p := &coreProbe{sums: map[string][]byte{}}
	root := tr.newID()
	start := time.Now()
	for _, c := range cells {
		var sum hdls.Summary
		var err error
		took := tr.timed(root, 0, "hdls.RunSummary", func() { sum, err = hdls.RunSummary(c.cfg) })
		if err != nil {
			return nil, fmt.Errorf("probe core: %w", err)
		}
		ms := float64(took) / float64(time.Millisecond)
		if c.cfg.Approach == hdls.MPIMPI {
			p.mpiMS = append(p.mpiMS, ms)
		} else {
			p.openmpMS = append(p.openmpMS, ms)
		}
		js, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		p.sums[c.hash] = js
	}
	p.total = time.Since(start)
	tr.record(root, 0, 0, "probe.core", start, time.Now())
	return p, nil
}

// perCallUS times fn over every cell, repeating the set until at least
// 50 ms have passed, and returns the mean µs per call.
func perCallUS(tr *tracer, name string, cells []cell, fn func(i int, c cell)) float64 {
	calls := 0
	var took time.Duration
	for took < 50*time.Millisecond {
		took += tr.timed(0, 0, name, func() {
			for i, c := range cells {
				fn(i, c)
			}
		})
		calls += len(cells)
	}
	return float64(took) / float64(time.Microsecond) / float64(calls)
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// probeMicro times the per-cell calls of the layers the service runs
// around the engine: spec parsing, hashing, validation and line encoding.
func probeMicro(tr *tracer, cells []cell, sums map[string][]byte, run int64) map[string]float64 {
	limits := serve.Options{}
	out := map[string]float64{}
	n := 0
	out["workload.parse_us"] = perCallUS(tr, "workload.ParseSpec", cells, func(int, cell) {
		n++
		p, err := workload.ParseSpec(smallSpec, freshSeed(run, streamProbe+1, n))
		if err == nil {
			sink = p
		}
	})
	out["hdls.hash_us"] = perCallUS(tr, "hdls.Config.Hash", cells, func(_ int, c cell) { sink = c.cfg.Hash() })
	out["serve.checkcell_us"] = perCallUS(tr, "serve.Options.CheckCell", cells, func(_ int, c cell) {
		sink = limits.CheckCell(c.cfg)
	})
	var sum hdls.Summary
	out["serve.cellline_us"] = perCallUS(tr, "serve.CellLine", cells, func(i int, c cell) {
		if json.Unmarshal(sums[c.hash], &sum) == nil {
			js, _ := json.Marshal(sum) // plain scalars; cannot fail
			sink = serve.CellLine(i, c.hash, js)
		}
	})
	return out
}

// probeCastore times the result store alone on dir: Open (which scans the
// disk tier), one LookupLocal per hash from disk, then again from memory.
// With entries non-nil the directory is first filled with them.
func probeCastore(tr *tracer, dir string, hashes []string, entries map[string][]byte) (openMS, diskUS, memUS float64, err error) {
	if entries != nil {
		st, err := castore.Open(castore.Options{MemEntries: len(hashes), Dir: dir})
		if err != nil {
			return 0, 0, 0, err
		}
		for _, h := range hashes {
			body := entries[h]
			st.Do(context.Background(), h, func(context.Context) ([]byte, error) { return body, nil })
		}
		st.Close() // flushes every queued disk write
	}
	var st *castore.Store
	took := tr.timed(0, 0, "castore.Open", func() {
		st, err = castore.Open(castore.Options{MemEntries: len(hashes), Dir: dir})
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	openMS = float64(took) / float64(time.Millisecond)
	lookup := func(name string, want castore.Tier) (float64, error) {
		var bad error
		took := tr.timed(0, 0, name, func() {
			for _, h := range hashes {
				body, tier, ok := st.LookupLocal(h)
				if !ok || tier != want || (entries != nil && !bytes.Equal(body, entries[h])) {
					bad = fmt.Errorf("probe castore: %s lookup of %s: tier %d, found %t", name, h, tier, ok)
					return
				}
			}
		})
		return float64(took) / float64(time.Microsecond) / float64(len(hashes)), bad
	}
	if diskUS, err = lookup("castore.LookupLocal.disk", castore.TierDisk); err != nil {
		return 0, 0, 0, err
	}
	if memUS, err = lookup("castore.LookupLocal.mem", castore.TierMem); err != nil {
		return 0, 0, 0, err
	}
	return openMS, diskUS, memUS, nil
}
