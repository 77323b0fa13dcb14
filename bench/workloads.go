package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/checks"
	"repro/internal/fleet"
)

// mix is one workload's traffic. Its inputs come from the run seed only.
type mix interface {
	// prepare builds what every set-up start needs; it is not timed.
	prepare(r *run) error
	// setup starts fresh daemons, waits until they are ready and sends the
	// first traffic; the i-th of the run's set-up starts. Its wall time is
	// setup_s.
	setup(r *run, i int) (*deployment, error)
	// pass drives the deployment for dur and returns cells_per_s. p numbers
	// the run's passes, so each draws fresh cells; s.tr is set in a traced
	// pass.
	pass(r *run, dep *deployment, dur time.Duration, s *sweeper, p int) float64
	// probeCells are the inputs the in-process layer probes run on.
	probeCells(r *run) []cell
	// castoreDir is a populated disk tier for the store probe, or "" to
	// have the probe fill one from probeCells.
	castoreDir() string
}

// workloadInfo names a workload and records why it is in the benchmark.
type workloadInfo struct {
	name, why string
	make      func() mix
	// segments is how many passes the untraced measurement is cut into,
	// each normalized by the reference timed around it. A segment lasts
	// 2 s, except grid-cold's: its 256-cell sweeps take about 1.7 s, and a
	// segment ends only when its last sweep does.
	segments int
}

// workloads is every workload in run order. The why lines are the ones in
// BENCHMARK.json.
var workloads = []workloadInfo{
	{"grid-cold", "the paper's 256-cell Figure 4-7 grid with fresh seeds; engine layers (sim, mpi, dls, core) dominate",
		func() mix { return &gridCold{} }, 4},
	{"small-cells", "4-cell sweeps of tiny fresh cells from 2 closed-loop clients; per-request serve overhead dominates",
		func() mix { return &smallCells{} }, 10},
	{"replay-mix", "Zipf replays of an 8192-cell disk pool through a 1024-entry memory tier, 2% fresh; castore and hashing dominate",
		func() mix { return &replayMix{} }, 10},
	{"fleet-small", "fresh 16-cell sweeps through a coordinator and two workers; the only workload through internal/fleet",
		func() mix { return &fleetSmall{} }, 10},
}

// Seed streams keep every generator of a run apart: set-up starts,
// probes, the replay pool, and each pass's clients.
const (
	streamSetup   = 1  // + set-up start index
	streamProbe   = 20 // + probe
	streamPool    = 30
	streamClients = 100 // + 10 × pass + client
)

// freshSeed is a cell seed that no other cell of the run uses: stream
// separates a run's generators and n counts cells within one. Distinct seeds
// give distinct canonical configs, so every fresh cell misses every cache.
func freshSeed(run int64, stream, n int) int64 {
	return run*1_000_000_000_000 + int64(stream)*1_000_000_000 + int64(n) + 1
}

// clientStream is the seed stream of client c in pass p.
func clientStream(p, c int) int { return streamClients + 10*p + c }

// startServe starts one serving daemon and waits until it is ready.
func startServe(r *run, spec daemonSpec) (*deployment, error) {
	d, err := r.launch(spec)
	if err != nil {
		return nil, err
	}
	dep := &deployment{url: d.url, daemons: []*daemon{d}}
	if err := waitReady(d); err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// warm sends one set-up sweep and fails the set-up if it fails.
func warm(r *run, dep *deployment, cells []cell) (*deployment, error) {
	if _, err := r.setupSweeper.sweep(dep.url, cells, 0); err != nil {
		dep.stop()
		return nil, fmt.Errorf("set-up sweep: %w", err)
	}
	return dep, nil
}

// closedSweeps runs clients closed-loop for dur, each sending the sweeps
// next generates, and records each passing sweep's latency from send. It
// returns cells per second of the cells that passed the oracle.
func closedSweeps(url string, clients int, dur time.Duration, s *sweeper, next func(c, k int) []cell) float64 {
	var good atomic.Int64
	window := closedLoop(clients, dur, func(c, k int) {
		cells := next(c, k)
		tm, err := s.sweep(url, cells, 0)
		if err != nil {
			return
		}
		good.Add(int64(len(cells)))
		s.t.add(func(t *tally) {
			t.lat = append(t.lat, tm.done.Sub(tm.sent))
			t.ttfb = append(t.ttfb, tm.firstByte.Sub(tm.sent))
		})
	})
	return float64(good.Load()) / window.Seconds()
}

// ---------------------------------------------------------------- grid-cold

// gridCold is the paper's evaluation as a researcher runs it: one client
// sweeping the whole Figure 4-7 grid (both applications, nodes 2-16, both
// approaches, scale 64) back to back, each sweep with a fresh seed so every
// cell simulates.
type gridCold struct{ kept bool }

// gridSweep is the 256-cell grid, every cell with the seed of sweep k of
// the stream.
func gridSweep(run int64, stream, k int) []cell {
	cfgs, err := checks.GridCells([]int{4, 5, 6, 7}, hdls.DefaultNodes, 64, freshSeed(run, stream, k))
	if err != nil { // fixed, valid arguments
		panic(err)
	}
	cells := make([]cell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = newCell(cfg)
	}
	return cells
}

func (g *gridCold) prepare(*run) error { return nil }

// setup readies a 2-worker daemon and sends 8 cells, one per figure and
// application, which fills the daemon's workload profile memos.
func (g *gridCold) setup(r *run, i int) (*deployment, error) {
	dep, err := startServe(r, daemonSpec{workers: 2})
	if err != nil {
		return nil, err
	}
	grid := gridSweep(r.seed, streamSetup+i, 0)
	var first []cell
	for j := 0; j < len(grid); j += 32 { // each figure × application block is 32 cells
		first = append(first, grid[j])
	}
	return warm(r, dep, first)
}

func (g *gridCold) pass(r *run, dep *deployment, dur time.Duration, s *sweeper, p int) float64 {
	if !g.kept { // the run's first sweep is compared in full
		s.keepNext.Store(true)
		g.kept = true
	}
	return closedSweeps(dep.url, 1, dur, s, func(_, k int) []cell { return gridSweep(r.seed, clientStream(p, 0), k) })
}

func (g *gridCold) probeCells(r *run) []cell { return gridSweep(r.seed, streamProbe, 0) }
func (g *gridCold) castoreDir() string       { return "" }

// -------------------------------------------------------------- small cells

// smallSpec is the loop of every small cell: 2048 equal iterations.
const smallSpec = "constant:n=2048"

var smallInters = []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}

// smallCell is cell i of sweep k: 2 nodes × 4 workers on smallSpec, inter
// rotating over smallInters, the approach alternating.
func smallCell(i, k int, seed int64) hdls.Config {
	ap := hdls.MPIMPI
	if (i+k)%2 == 1 {
		ap = hdls.MPIOpenMP
	}
	return hdls.Config{
		Nodes: 2, WorkersPerNode: 4,
		Inter: smallInters[i%len(smallInters)], Intra: dls.GSS, Approach: ap,
		Workload: smallSpec, Seed: seed,
	}
}

// smallSweep is sweep k of a stream: n fresh small cells.
func smallSweep(run int64, stream, k, n int) []cell {
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = newCell(smallCell(i, k, freshSeed(run, stream, k*n+i)))
	}
	return cells
}

// pacedRate is the open-loop arrival rate of small-cells' traced pass, in
// sweeps per second: about half the closed-loop capacity of a 2-core host.
const pacedRate = 800

// smallCells is the interactive service user: many tiny sweeps whose cost
// is mostly per-request overhead, from 2 closed-loop clients. The traced
// pass adds an open-loop phase of Poisson arrivals at pacedRate, its
// latency timed from each request's due time. That phase is not an
// end-to-end metric: its p99 swung 0.3-0.45 (interquartile range over
// median) between runs on a shared 2-core host, beyond any bound.
type smallCells struct{}

func (smallCells) prepare(*run) error { return nil }

func (smallCells) setup(r *run, i int) (*deployment, error) {
	dep, err := startServe(r, daemonSpec{})
	if err != nil {
		return nil, err
	}
	return warm(r, dep, smallSweep(r.seed, streamSetup+i, 0, 16))
}

func (smallCells) pass(r *run, dep *deployment, dur time.Duration, s *sweeper, p int) float64 {
	next := func(c, k int) []cell { return smallSweep(r.seed, clientStream(p, c), k, 4) }
	if s.tr == nil {
		return closedSweeps(dep.url, 2, dur, s, next)
	}
	rate := closedSweeps(dep.url, 2, dur/2, s, next)
	rng := rand.New(rand.NewSource(freshSeed(r.seed, clientStream(p, 9), 0)))
	openLoop(rng, pacedRate, dur-dur/2, s.t, func(k int, due time.Time) {
		tm, err := s.sweep(dep.url, smallSweep(r.seed, clientStream(p, 8), k, 4), 0)
		if err != nil {
			return
		}
		s.t.add(func(t *tally) { t.paced = append(t.paced, tm.done.Sub(due)) })
	})
	return rate
}

func (smallCells) probeCells(r *run) []cell { return smallSweep(r.seed, streamProbe, 0, 1024) }
func (smallCells) castoreDir() string       { return "" }

// --------------------------------------------------------------- replay-mix

// Replay-mix's shape: the pool is 8× the memory tier, so reads split
// between memory hits, disk hits (promoted to memory) and a few misses
// whose results queue disk writes.
const (
	poolSize    = 8192
	replayMem   = 1024
	replayFresh = 0.02
	replayZipfS = 1.1
	replayCells = 16
)

// replayMix replays a populated store: setup fills a disk tier with the
// pool; each start is a warm restart on it with a small memory tier.
type replayMix struct {
	dir  string
	pool []cell
}

func (m *replayMix) prepare(r *run) error {
	m.dir = filepath.Join(r.dir, "replay-pool")
	m.pool = make([]cell, poolSize)
	for j := range m.pool {
		m.pool[j] = newCell(smallCell(j%replayCells, j/replayCells, freshSeed(r.seed, streamPool, j)))
	}
	r.oracle.repeats = map[string][]byte{}
	dep, err := startServe(r, daemonSpec{cacheDir: m.dir})
	if err != nil {
		return err
	}
	if err := m.fill(r, dep.daemons[0]); err != nil {
		dep.stop()
		return fmt.Errorf("fill replay pool: %w", err)
	}
	return dep.stop() // the drain flushes the disk tier
}

// fill sends the pool to d and checks that every cell reached its disk tier.
func (m *replayMix) fill(r *run, d *daemon) error {
	for off := 0; off < poolSize; off += 256 {
		if _, err := r.setupSweeper.sweep(d.url, m.pool[off:off+256], 0); err != nil {
			return err
		}
		// The store drops disk writes when its 1024-write queue is full, so
		// fill one batch at a time.
		if err := waitDiskWrites(d); err != nil {
			return err
		}
	}
	st, err := scrape(d)
	if err != nil {
		return err
	}
	if n := st["hdlsd_cache_disk_entries"]; n != poolSize {
		return fmt.Errorf("disk tier holds %g entries, want %d", n, poolSize)
	}
	return nil
}

// waitDiskWrites waits until the daemon's disk-tier write queue is empty.
func waitDiskWrites(d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := scrape(d)
		if err != nil {
			return err
		}
		if st["hdlsd_cache_disk_writes_pending"] == 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("disk-tier writes still pending after 30s")
}

// replayGen draws one client's cells: Zipf over the pool, with a
// replayFresh share of never-seen cells.
type replayGen struct {
	m      *replayMix
	rng    *rand.Rand
	zipf   *rand.Zipf
	run    int64
	stream int
	fresh  int
}

func (m *replayMix) gen(run int64, stream int) *replayGen {
	rng := rand.New(rand.NewSource(freshSeed(run, stream, 0)))
	return &replayGen{m: m, rng: rng, zipf: rand.NewZipf(rng, replayZipfS, 1, poolSize-1), run: run, stream: stream}
}

func (g *replayGen) sweep() []cell {
	cells := make([]cell, replayCells)
	for i := range cells {
		if g.rng.Float64() < replayFresh {
			g.fresh++
			cells[i] = newCell(smallCell(i, g.fresh, freshSeed(g.run, g.stream, g.fresh)))
			continue
		}
		cells[i] = g.m.pool[g.zipf.Uint64()]
	}
	return cells
}

func (m *replayMix) setup(r *run, i int) (*deployment, error) {
	dep, err := startServe(r, daemonSpec{cache: replayMem, cacheDir: m.dir})
	if err != nil {
		return nil, err
	}
	return warm(r, dep, m.gen(r.seed, streamSetup+i).sweep())
}

func (m *replayMix) pass(r *run, dep *deployment, dur time.Duration, s *sweeper, p int) float64 {
	gens := []*replayGen{m.gen(r.seed, clientStream(p, 0)), m.gen(r.seed, clientStream(p, 1))}
	return closedSweeps(dep.url, len(gens), dur, s, func(c, _ int) []cell { return gens[c].sweep() })
}

func (m *replayMix) probeCells(*run) []cell { return m.pool[:replayMem] }
func (m *replayMix) castoreDir() string     { return m.dir }

// -------------------------------------------------------------- fleet-small

// fleetPorts pins the workers' addresses: the coordinator's consistent-hash
// ring is built from worker URLs, so pinned ports give the same split of
// the same cells on every run. They sit below Linux's ephemeral port range.
var fleetPorts = []string{"127.0.0.1:28471", "127.0.0.1:28472"}

// fleetSmall is a coordinator with two single-worker daemons behind it.
type fleetSmall struct{}

func (fleetSmall) prepare(*run) error { return nil }

func (fleetSmall) setup(r *run, i int) (*deployment, error) {
	dep := &deployment{}
	var peers []string
	for _, addr := range fleetPorts {
		d, err := r.launch(daemonSpec{workers: 1, addr: addr})
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
		dep.workers = append(dep.workers, d)
		peers = append(peers, d.url)
	}
	for _, d := range dep.workers {
		if err := waitReady(d); err != nil {
			dep.stop()
			return nil, err
		}
	}
	coord, err := r.launch(daemonSpec{coordinator: true, peers: peers})
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.daemons = append(dep.daemons, coord)
	dep.url = coord.url
	if err := waitReady(coord); err != nil {
		dep.stop()
		return nil, err
	}
	return warm(r, dep, smallSweep(r.seed, streamSetup+i, 0, 16))
}

func (fleetSmall) pass(r *run, dep *deployment, dur time.Duration, s *sweeper, p int) float64 {
	next := func(c, k int) []cell { return smallSweep(r.seed, clientStream(p, c), k, 16) }
	if s.tr == nil {
		return closedSweeps(dep.url, 2, dur, s, next)
	}
	// The traced pass measures throughput on the same traffic for two
	// thirds of its time, then spends the rest on paired shard sweeps.
	rate := closedSweeps(dep.url, 2, dur*2/3, s, next)
	shardPairs(r, dep, dur-dur*2/3, s, p)
	return rate
}

// shardPairs measures what the coordinator adds over its workers. Each
// iteration splits a fresh sweep X over the workers with the coordinator's
// own ring, sends a twin sweep Y — the same cells with other seeds, so the
// same shapes — to those workers directly as the coordinator would, then
// sends X through the coordinator. Merge stall is X's latency minus Y's
// slowest shard; both sweeps simulate every cell.
func shardPairs(r *run, dep *deployment, dur time.Duration, s *sweeper, p int) {
	var names []string
	for _, d := range dep.workers {
		names = append(names, d.url)
	}
	ring := fleet.NewRing(names, 64)
	closedLoop(2, dur, func(c, k int) {
		x := smallSweep(r.seed, clientStream(p, 2+c), k, 16)
		y := smallSweep(r.seed, clientStream(p, 4+c), k, 16)
		shards := make([][]cell, len(names))
		for i, xc := range x {
			w := ring.Owner(hdls.HashKeyOf(xc.hash))
			shards[w] = append(shards[w], y[i])
		}
		root := s.tr.newID()
		start := time.Now()
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			slowest time.Duration
			most    int
			lats    []time.Duration
		)
		for w, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			most = max(most, len(shard))
			wg.Add(1)
			go func(url string, shard []cell) {
				defer wg.Done()
				tm, err := s.sweep(url, shard, root)
				if err != nil {
					return
				}
				mu.Lock()
				lats = append(lats, tm.done.Sub(tm.sent))
				slowest = max(slowest, tm.done.Sub(tm.sent))
				mu.Unlock()
			}(dep.workers[w].url, shard)
		}
		wg.Wait()
		s.tr.record(root, 0, 0, "fleet.direct_shards", start, time.Now())
		tm, err := s.sweep(dep.url, x, 0)
		if err != nil {
			return
		}
		s.t.add(func(t *tally) {
			t.shard = append(t.shard, lats...)
			t.stall = append(t.stall, tm.done.Sub(tm.sent)-slowest)
			t.imbalance = append(t.imbalance, float64(most)/(float64(len(x))/float64(len(names))))
		})
	})
}

func (fleetSmall) probeCells(r *run) []cell { return smallSweep(r.seed, streamProbe, 0, 1024) }
func (fleetSmall) castoreDir() string       { return "" }
