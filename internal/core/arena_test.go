package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestArenaReuseByteIdentical is the pooled-arena oracle: the same cell run
// through a fresh engine/world and through a pooled context — dirtied in
// between by cells of different shapes, approaches and seeds — must produce
// byte-identical results, including the full event trace. This is the
// contract DESIGN.md §8 rests on: Engine.Reset/World.Reset restore the exact
// NewEngine/NewWorld starting state.
func TestArenaReuseByteIdentical(t *testing.T) {
	prof := workload.Uniform(1536, 15e-6, 45e-6, 11)
	cell := Config{
		Cluster:        cluster.MiniHPC(2),
		WorkersPerNode: 8,
		Inter:          dls.GSS,
		Intra:          dls.SS, // lock contention: exercises ports, pollers, wake chains
		Workload:       prof,
		Approach:       MPIMPI,
		Seed:           3,
		CollectTrace:   true,
	}
	dirty := []Config{
		{ // different machine shape and approach
			Cluster: cluster.MiniHPCHetero(3, 1.0, 0.6), WorkersPerNode: 4,
			Inter: dls.FAC2, Intra: dls.STATIC,
			Workload: workload.Constant(700, 20e-6), Approach: MPIOpenMP, Seed: 9,
		},
		{ // different seed and noise on the same executor
			Cluster: withNoiseCV(cluster.MiniHPC(4), 0.2), WorkersPerNode: 16,
			Inter: dls.TSS, Intra: dls.GSS,
			Workload: workload.Exponential(2048, 40e-6, 5), Approach: MPIMPI, Seed: 17,
		},
	}

	harnessPool = sync.Pool{} // guarantee the first run builds a fresh arena
	fresh := mustRun(t, cell)
	for _, d := range dirty {
		mustRun(t, d)
	}
	pooled := mustRun(t, cell) // reuses the arena the dirty cells retired
	pooled2 := mustRun(t, cell)

	for _, got := range []*Result{pooled, pooled2} {
		if got.ParallelTime != fresh.ParallelTime {
			t.Fatalf("pooled ParallelTime %v != fresh %v", got.ParallelTime, fresh.ParallelTime)
		}
		if !reflect.DeepEqual(got.WorkerFinish, fresh.WorkerFinish) ||
			!reflect.DeepEqual(got.WorkerCompute, fresh.WorkerCompute) ||
			!reflect.DeepEqual(got.NodeFinish, fresh.NodeFinish) {
			t.Fatal("pooled per-worker results differ from fresh run")
		}
		if got.GlobalChunks != fresh.GlobalChunks || got.LocalChunks != fresh.LocalChunks ||
			got.LockAttempts != fresh.LockAttempts || got.LockAcquisitions != fresh.LockAcquisitions {
			t.Fatalf("pooled counters differ: %+v vs fresh %+v", got, fresh)
		}
		if !reflect.DeepEqual(got.Trace.Events, fresh.Trace.Events) {
			t.Fatal("pooled event trace differs from fresh run")
		}
	}
}

// TestArenaReuseAcrossShapes extends the pooled-arena oracle to the
// machines a pooled arena keeps (DESIGN.md §8): rank and thread machines,
// RMA issuers, collective records, communicators and teams. Each of 72
// fuzzed cells — all three executors, every inter technique, 1 to 8 nodes,
// 1 to 16 workers per node, heterogeneous speeds and core counts, noise,
// slowdowns and background load, traces on — runs once on a fresh arena
// and once in a sequence of cells that all share one arena, and both runs
// must agree on every result field and every trace event. State that one
// cell leaves in a pooled machine and the next cell reads shows here.
func TestArenaReuseAcrossShapes(t *testing.T) {
	cells := make([]Config, 72)
	seen := map[Approach]int{}
	nodes, wpns := map[int]bool{}, map[int]bool{}
	for i := range cells {
		rng := rand.New(rand.NewSource(int64(9100 + i)))
		cells[i] = fuzzConfig(rng, allInter[i%len(allInter)])
		seen[cells[i].Approach]++
		nodes[cells[i].Cluster.Nodes] = true
		wpns[cells[i].WorkersPerNode] = true
	}
	if len(seen) != 3 || len(nodes) < 4 || len(wpns) < 4 {
		t.Fatalf("draw covers approaches %v, node counts %v, workers per node %v", seen, nodes, wpns)
	}

	fresh := make([]string, len(cells))
	for i, cfg := range cells {
		harnessPool = sync.Pool{} // a fresh arena for every cell
		fresh[i] = hybridDigest(mustRun(t, cfg))
	}

	// One arena for the whole sequence: a single P keeps sync.Pool's
	// per-P cache in play, and no collection empties it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	harnessPool = sync.Pool{}
	_, builds0, _ := ArenaStats()
	for i, cfg := range cells {
		if got := hybridDigest(mustRun(t, cfg)); got != fresh[i] {
			t.Errorf("cell %d (%v %v/%v %dn×%dw seed=%d) after %d pooled cells: digest %s, fresh arena %s",
				i, cfg.Approach, cfg.Inter, cfg.Intra, cfg.Cluster.Nodes, cfg.WorkersPerNode, cfg.Seed, i, got, fresh[i])
		}
	}
	// Under the race detector sync.Pool drops a quarter of its puts at
	// random, so the sequence builds a few more arenas there; the digests
	// must match all the same.
	if _, builds, _ := ArenaStats(); !raceEnabled && builds-builds0 != 1 {
		t.Fatalf("the pooled sequence built %d arenas, want 1", builds-builds0)
	}
}

func withNoiseCV(c cluster.Config, cv float64) cluster.Config {
	c.NoiseCV = cv
	return c
}

// TestPooledSweepLeaksNoGoroutines is the goroutine-leak guard for the
// arena pool: cells are goroutine-free machines, so a pooled sweep must
// leave the host goroutine count where it found it.
func TestPooledSweepLeaksNoGoroutines(t *testing.T) {
	prof := workload.Uniform(1024, 15e-6, 40e-6, 7)
	cfgs := []Config{
		{Cluster: cluster.MiniHPC(4), WorkersPerNode: 16, Inter: dls.GSS, Intra: dls.SS,
			Workload: prof, Approach: MPIMPI, Seed: 1},
		{Cluster: cluster.MiniHPC(2), WorkersPerNode: 8, Inter: dls.FAC2, Intra: dls.GSS,
			Workload: prof, Approach: MPIOpenMP, Seed: 2},
		{Cluster: cluster.MiniHPC(2), WorkersPerNode: 8, Inter: dls.GSS, Intra: dls.STATIC,
			Workload: prof, Approach: MPIOpenMPNoWait, Seed: 3},
	}
	run := func() {
		for _, cfg := range cfgs {
			if _, err := RunSummary(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the pool and any lazy runtime machinery
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		run()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("pooled sweep leaked goroutines: %d before, %d after", before, after)
	}
}

// TestMPIMPISpawnsNoGoroutines pins the goroutine-free cell contract for
// every executor: probe events firing throughout the run must see the
// goroutine count the cell started with — ranks and OpenMP threads are
// continuation machines, never goroutines.
func TestMPIMPISpawnsNoGoroutines(t *testing.T) {
	for _, ap := range []Approach{MPIMPI, MPIOpenMP, MPIOpenMPNoWait} {
		cfg := Config{
			Cluster: cluster.MiniHPC(2), WorkersPerNode: 16,
			Inter: dls.GSS, Intra: dls.SS,
			Workload: workload.Uniform(2048, 15e-6, 40e-6, 3),
			Approach: ap, Seed: 1,
		}
		c := cfg.withDefaults()
		h := newHarness(&c)
		before, peak, probes := runtime.NumGoroutine(), 0, 0
		for i := 1; i <= 20; i++ {
			h.eng.Schedule(sim.Time(i)*50*sim.Microsecond, func() {
				probes++
				if g := runtime.NumGoroutine(); g > peak {
					peak = g
				}
			})
		}
		var err error
		switch ap {
		case MPIMPI:
			err = h.runMPIMPI()
		case MPIOpenMP:
			err = h.runMPIOpenMP()
		default:
			err = h.runMPIOpenMPNoWait()
		}
		if err != nil {
			t.Fatalf("%v: %v", ap, err)
		}
		if probes != 20 || peak > before {
			t.Fatalf("%v cell: %d probes saw up to %d goroutines, started with %d", ap, probes, peak, before)
		}
	}
}
