package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient is the one client every workload drives its daemons with.
// Connections per host stay at the core count, so the generator never opens
// more parallel streams than the host can serve.
func newHTTPClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// sweepTiming is one sweep as the client saw it.
type sweepTiming struct {
	sent, firstByte, done time.Time
}

// tally accumulates one pass's observations across client goroutines.
type tally struct {
	mu        sync.Mutex
	lat       []time.Duration // closed loop: per sweep, from send
	ttfb      []time.Duration
	paced     []time.Duration // open loop: latency from due time
	late      []time.Duration // open loop: send start minus due time
	shard     []time.Duration // fleet: direct shard latency
	stall     []time.Duration // fleet: coordinator latency minus slowest shard
	imbalance []float64       // fleet: max over mean shard cells
	cells     int             // cells received and checked
	attempted int             // cells sent
	failed    int             // cells failed: transport, status, error line, oracle
	sweeps    int
	layers    layerCounts // traced passes only
}

func (t *tally) add(fn func(t *tally)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t)
}

// sweeper posts sweeps to one workload's daemons, checks every line, and
// counts cells into its tally.
type sweeper struct {
	http   *http.Client
	oracle *oracle
	tr     *tracer
	t      *tally
	ids    *atomic.Int64 // the run's sweep numbers, for oracle messages
	onErr  func(error)   // sees every failed sweep
	// keepNext has every line of the next sweep compared in-process, not
	// only the sampled ones.
	keepNext atomic.Bool
}

// sweep streams one sweep from url and checks every line. parent links its
// spans into an enclosing span. It returns the timing of a sweep whose
// every line passed and an error otherwise; failed cells are in the tally
// either way.
func (s *sweeper) sweep(url string, cells []cell, parent int64) (sweepTiming, error) {
	sweepNo := int(s.ids.Add(1))
	timing, ok, err := s.stream(url, sweepNo, cells, s.keepNext.Swap(false), parent)
	s.t.add(func(t *tally) {
		t.sweeps++
		t.attempted += len(cells)
		t.cells += ok
		t.failed += len(cells) - ok
	})
	if err == nil && ok < len(cells) {
		err = fmt.Errorf("sweep %d: %d of %d cells failed the oracle", sweepNo, len(cells)-ok, len(cells))
	}
	if err != nil {
		s.onErr(err)
	}
	return timing, err
}

// stream does the request and returns how many lines passed the oracle.
func (s *sweeper) stream(url string, sweepNo int, cells []cell, keep bool, parent int64) (sweepTiming, int, error) {
	var body bytes.Buffer
	body.WriteString(`{"cells":[`)
	for i, c := range cells {
		if i > 0 {
			body.WriteByte(',')
		}
		js, err := json.Marshal(c.cfg)
		if err != nil {
			return sweepTiming{}, 0, err
		}
		body.Write(js)
	}
	body.WriteString("]}")

	var tm sweepTiming
	tm.sent = time.Now()
	resp, err := s.http.Post(url+"/v1/sweep?stream=1", "application/json", &body)
	if err != nil {
		return tm, 0, err
	}
	defer resp.Body.Close()
	tm.firstByte = time.Now()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return tm, 0, fmt.Errorf("sweep %d: status %d: %s", sweepNo, resp.StatusCode, bytes.TrimSpace(msg))
	}
	root := s.tr.newID()
	tid := int64(sweepNo)
	s.tr.record(0, root, tid, "client.ttfb", tm.sent, tm.firstByte)
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	ok, idx := 0, 0
	prev := tm.firstByte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			break
		}
		if err != nil {
			return tm, ok, fmt.Errorf("sweep %d: read line %d: %w", sweepNo, idx, err)
		}
		now := time.Now()
		s.tr.record(0, root, tid, "client.line", prev, now)
		prev = now
		line = line[:len(line)-1]
		if idx >= len(cells) {
			return tm, ok, fmt.Errorf("sweep %d: more lines than its %d cells", sweepNo, len(cells))
		}
		if s.oracle.check(sweepNo, idx, cells[idx], line, keep) {
			ok++
			if s.tr != nil {
				s.t.add(func(t *tally) { t.layers.addLine(cells[idx], line) })
			}
		}
		idx++
	}
	tm.done = time.Now()
	s.tr.record(root, parent, tid, "client.sweep", tm.sent, tm.done)
	if idx != len(cells) {
		return tm, ok, fmt.Errorf("sweep %d: %d lines for %d cells", sweepNo, idx, len(cells))
	}
	return tm, ok, nil
}

// closedLoop runs clients that each start their next iteration as soon as
// the previous one ends, until dur has passed, and returns the wall time
// from the first start to the last end. Every client runs at least once.
func closedLoop(clients int, dur time.Duration, iter func(client, k int)) time.Duration {
	start := time.Now()
	stopAt := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(stopAt); k++ {
				iter(c, k)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// maxOutstanding bounds the open loop's in-flight requests; at the paced
// rate only a stall of several seconds would reach it, and the generator
// then waits, which shows as lateness.
const maxOutstanding = 1024

// openLoop sends iterations at Poisson arrivals of rate per second for dur,
// whether or not earlier ones finished, and records each one's lateness —
// how long after its due time it started. iter gets its due time, from
// which its latency is measured.
func openLoop(rng *rand.Rand, rate float64, dur time.Duration, t *tally, iter func(k int, due time.Time)) {
	start := time.Now()
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	due := start
	for k := 0; ; k++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			late := time.Since(due)
			t.add(func(t *tally) { t.late = append(t.late, late) })
			iter(k, due)
		}(k, due)
	}
	wg.Wait()
}
