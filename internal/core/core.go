// Package core implements the paper's contribution: hierarchical dynamic
// loop self-scheduling on distributed memory with two executors sharing one
// distributed chunk-calculation substrate.
//
// Both executors schedule at two levels. At the inter-node level, a global
// work queue — two counters (scheduling step, scheduled iterations) in an
// RMA window on rank 0 — is advanced with MPI_Fetch_and_op; every node
// computes its own chunks from the step it obtained (Eleliemy & Ciorba's
// distributed chunk calculation, no master process). At the intra-node
// level the two approaches differ, and that difference is the paper:
//
//   - MPI+MPI (§3): all ranks of a node share a local work queue in an
//     MPI-3 shared-memory window guarded by MPI_Win_lock / MPI_Win_sync.
//     Whenever a rank finds the local queue empty it fetches a fresh global
//     chunk and refills — "the fastest process always takes this
//     responsibility" — so no rank ever waits for teammates.
//
//   - MPI+OpenMP (HLS-style baseline): one rank per node executes each
//     global chunk with an OpenMP worksharing loop; the loop's implicit
//     barrier synchronizes all threads before the next chunk is fetched.
//
// A third executor, MPIOpenMPNoWait, implements the paper's future-work
// idea: OpenMP threads pipeline across chunk boundaries with the fastest
// thread fetching new chunks under MPI_THREAD_MULTIPLE.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Approach selects the intra-node execution model.
type Approach int

// The implemented approaches.
const (
	// MPIMPI is the paper's proposed approach (§3).
	MPIMPI Approach = iota
	// MPIOpenMP is the existing hierarchical baseline (§4).
	MPIOpenMP
	// MPIOpenMPNoWait is the paper's future-work variant: no implicit
	// barrier, threads self-schedule across chunk boundaries.
	MPIOpenMPNoWait
)

func (a Approach) String() string {
	switch a {
	case MPIMPI:
		return "MPI+MPI"
	case MPIOpenMP:
		return "MPI+OpenMP"
	case MPIOpenMPNoWait:
		return "MPI+OpenMP(nowait)"
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// Config describes one hierarchical scheduling experiment.
type Config struct {
	Cluster cluster.Config
	// WorkersPerNode is the number of MPI ranks per node (MPI+MPI) or
	// OpenMP threads per node (MPI+OpenMP). The paper uses 16. On a
	// heterogeneous machine it acts as a per-node cap: node n runs
	// min(WorkersPerNode, Cluster.Cores(n)) workers, so a 64-core KNL node
	// fills all its cores at WorkersPerNode = 64 while a 16-core Xeon
	// neighbour still runs 16.
	WorkersPerNode int
	// Inter is the DLS technique at the inter-node level (P = nodes).
	Inter dls.Technique
	// Intra is the technique at the intra-node level, applied per chunk
	// (P = WorkersPerNode).
	Intra dls.Technique
	// IntraChunk is the OpenMP schedule-clause chunk argument (0 = default).
	IntraChunk int
	// Workload supplies the loop and its per-iteration costs.
	Workload *workload.Profile
	Approach Approach
	// Seed drives the engine RNG (noise); runs are bit-deterministic per seed.
	Seed int64
	// Perturb describes scenario perturbations (internal/perturb): system
	// noise, transient slowdowns, background load. The zero value keeps the
	// machine smooth. A zero Perturb.Seed inherits Seed.
	Perturb perturb.Config
	// ExtendedRuntime permits TSS/FAC2 intra-node under MPI+OpenMP,
	// modelling the LaPeSD-libGOMP runtime the paper defers to future work.
	// Without it those combinations error, matching the Intel runtime.
	ExtendedRuntime bool
	// CollectTrace records a full per-chunk event trace (memory-heavy for
	// SS runs; coverage is always verified via a bitmap regardless).
	CollectTrace bool
	// QueueCapacity bounds the node-local work queue in chunks
	// (default WorkersPerNode, which is also the provable upper bound).
	QueueCapacity int
	// ChunkCalcCost is the CPU cost of computing one chunk's size inside a
	// critical section (default 0.15 µs).
	ChunkCalcCost sim.Time
	// Interrupt, when non-nil, is polled by the engine during the run; once
	// it reads true the run aborts with an error wrapping sim.ErrInterrupted.
	// It exists so services can stop a simulation whose requester has gone
	// away (client disconnect). It never affects a run that completes: the
	// flag is only read, so results stay pure functions of the other fields.
	Interrupt *atomic.Bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueCapacity <= 0 {
		// The provable bound is the node's worker count; on heterogeneous
		// machines size for the largest node so every local queue fits.
		out.QueueCapacity = out.WorkersPerNode
		if m := out.Cluster.MaxCores(); out.QueueCapacity > m {
			out.QueueCapacity = m
		}
	}
	if out.ChunkCalcCost <= 0 {
		out.ChunkCalcCost = 0.15 * sim.Microsecond
	}
	if out.Perturb.Seed == 0 {
		out.Perturb.Seed = out.Seed
	}
	return out
}

// workersOn reports node n's worker count: WorkersPerNode capped by the
// node's core count.
func (c *Config) workersOn(n int) int {
	if k := c.Cluster.Cores(n); c.WorkersPerNode > k {
		return k
	}
	return c.WorkersPerNode
}

// intraSupported lists the techniques valid at the intra-node level for the
// MPI+MPI executor (weighted/adaptive techniques need per-worker feedback
// plumbing that the shared-queue word layout doesn't carry).
func intraSupported(t dls.Technique) bool {
	switch t {
	case dls.STATIC, dls.SS, dls.FSC, dls.GSS, dls.TSS, dls.FAC, dls.FAC2, dls.TFSS, dls.RND:
		return true
	}
	return false
}

// Validate checks the configuration, including the paper's runtime
// constraint: the stock OpenMP runtime only offers static/dynamic/guided.
func (c *Config) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.WorkersPerNode <= 0 || c.WorkersPerNode > c.Cluster.MaxCores() {
		return fmt.Errorf("core: WorkersPerNode %d out of 1..%d", c.WorkersPerNode, c.Cluster.MaxCores())
	}
	if err := c.Perturb.Validate(); err != nil {
		return err
	}
	if c.Workload == nil || c.Workload.N() == 0 {
		return fmt.Errorf("core: empty workload")
	}
	if !intraSupported(c.Inter) && c.Inter != dls.WF {
		return fmt.Errorf("core: inter-node technique %v unsupported", c.Inter)
	}
	if !intraSupported(c.Intra) {
		return fmt.Errorf("core: intra-node technique %v unsupported", c.Intra)
	}
	if c.Approach == MPIOpenMP || c.Approach == MPIOpenMPNoWait {
		kind, err := mapIntraToOpenMP(c.Intra)
		if err != nil {
			return err
		}
		if kind.Extended() && !c.ExtendedRuntime {
			return fmt.Errorf("core: intra %v requires the extended OpenMP runtime "+
				"(the paper's Intel stack supports only static/dynamic/guided; set ExtendedRuntime)", c.Intra)
		}
	}
	return nil
}

// Result reports one experiment.
type Result struct {
	Approach     Approach
	Inter, Intra dls.Technique
	Nodes        int
	Workers      int // total workers (Σ per-node worker counts)
	// NodeWorkers is each node's worker count; worker w of the flat slices
	// below lives on the node whose [offset, offset+count) range contains w,
	// in node order.
	NodeWorkers []int

	// ParallelTime is the paper's metric: the time at which the last
	// worker finished executing loop iterations.
	ParallelTime sim.Time
	// WorkerFinish is each worker's last-execution completion time.
	WorkerFinish []sim.Time
	// WorkerCompute is each worker's accumulated execution time.
	WorkerCompute []sim.Time
	// NodeFinish is each node's last-execution completion time (the max
	// over its workers) — the robustness sweeps key on its spread.
	NodeFinish []sim.Time
	// LoadImbalance is max/mean − 1 over worker finish times.
	LoadImbalance float64

	GlobalChunks int // chunks issued by the global queue
	LocalChunks  int // sub-chunks issued at the intra-node level

	// LockAttempts / LockAcquisitions count MPI_Win_lock activity on the
	// local queues (MPI+MPI only); their ratio exposes the polling storms.
	LockAttempts     int64
	LockAcquisitions int64
	// BarrierWait is the accumulated implicit-barrier idle time
	// (MPI+OpenMP only) — the overhead the paper's Figure 2 illustrates.
	BarrierWait sim.Time

	// Trace is non-nil when Config.CollectTrace was set.
	Trace *trace.Trace
}

// Run executes the configured experiment and returns its result. The run
// fails if the executors violate the exact-coverage invariant — every loop
// iteration executed exactly once. The simulation arena (engine, MPI world,
// executor scratch) is drawn from a pool and reinitialized in place, which
// is observationally identical to building it from scratch (DESIGN.md §8);
// results are a pure function of cfg either way.
func Run(cfg Config) (*Result, error) {
	h, err := runHarness(cfg)
	if err != nil {
		return nil, err
	}
	res := h.result()
	h.release()
	return res, nil
}

// Summary is the compact per-cell outcome sweep drivers aggregate
// incrementally: scalars only, no per-worker slices, so thousand-cell
// sweeps run flat in memory. Every value is computed with exactly the
// arithmetic Run's Result consumers would have used.
type Summary struct {
	ParallelTime     sim.Time `json:"parallel_time"`
	NodeFinishCoV    float64  `json:"node_finish_cov"` // CoV over per-node last-finish times
	LoadImbalance    float64  `json:"load_imbalance"`
	Workers          int      `json:"workers"`
	GlobalChunks     int      `json:"global_chunks"`
	LocalChunks      int      `json:"local_chunks"`
	LockAttempts     int64    `json:"lock_attempts"`
	LockAcquisitions int64    `json:"lock_acquisitions"`
	BarrierWait      sim.Time `json:"barrier_wait"`
}

// RunSummary executes the experiment like Run but returns only the compact
// summary, skipping the Result's per-worker slice copies.
func RunSummary(cfg Config) (Summary, error) {
	h, err := runHarness(cfg)
	if err != nil {
		return Summary{}, err
	}
	s := h.summary()
	h.release()
	return s, nil
}

func runHarness(cfg Config) (*harness, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	if c.Perturb.Enabled() {
		m, err := perturb.New(c.Perturb, c.Cluster.Nodes)
		if err != nil {
			return nil, err
		}
		c.Cluster.Perturb = m
	}
	h := newHarness(&c)
	var err error
	switch c.Approach {
	case MPIMPI:
		err = h.runMPIMPI()
	case MPIOpenMP:
		err = h.runMPIOpenMP()
	case MPIOpenMPNoWait:
		err = h.runMPIOpenMPNoWait()
	default:
		return nil, fmt.Errorf("core: unknown approach %v", c.Approach)
	}
	if err != nil {
		return nil, err
	}
	if err := h.checkCoverage(); err != nil {
		return nil, err
	}
	return h, nil
}

// harness carries the shared bookkeeping of one run.
type harness struct {
	cfg    *Config // &cfgVal while a cell runs
	cfgVal Config  // the cell's defaulted config, copied in by newHarness
	eng    *sim.Engine
	world  *mpi.World // pooled across cells; reset per run (DESIGN.md §8)
	prof   *workload.Profile

	nWorkers int
	wPerNode []int // workers hosted per node
	wOff     []int // first flat worker index of each node
	finish   []sim.Time
	compute  []sim.Time

	bitmap   []uint64
	executed int

	globalChunks int
	localChunks  int
	lockAtt      int64
	lockAcq      int64
	barrierWait  sim.Time

	tr *trace.Trace

	// Intra-level schedule cache, one slice per node indexed by chunk
	// length; schedules are pure functions of (step, worker) so sharing
	// them per node is safe. Slice indexing keeps the steady-state lookup
	// in takeHeadLocked allocation- and hash-free (chunk lengths repeat
	// heavily: inter-level techniques emit few distinct sizes). Lengths of
	// intraCacheCap or more use the one-entry per-node cache below instead
	// of inflating the slice.
	intraCache  [][]dls.Schedule
	intraBigLen []int
	intraBig    []dls.Schedule
	sigma       float64

	// gssDecay holds, per node, GSS-intra's factors math.Pow(1-1/p, step)
	// for the node's worker count p, by step. It outlives cells: a table
	// is refilled only when its node's worker count changes.
	gssDecay []gssTable

	// The executors' machines, built once per arena and reset in place
	// by each cell's setup (DESIGN.md §8): MPI+MPI workers by world rank,
	// MPI+OpenMP ranks (with their teams) and nowait nodes by node. Every
	// step func is bound at construction, and so are the Launch start
	// functions below.
	workers     []*mpimpiWorker
	ompRanks    []*ompRank
	nowaitNodes []*nowaitNode

	startMPIMPIFn, startMPIOpenMPFn, startNoWaitFn func(*mpi.Rank)

	inter     interSched // the cell's global-queue schedule
	finished  int        // ranks retired this cell
	localWins []*mpi.Win // MPI+MPI: each node's local-queue window
	lqNames   []string   // "local-queue-<node>", by node

	finF, nodeF []float64 // summary's scratch
}

// gssTable is one node's GSS-intra factors for p workers.
type gssTable struct {
	p   int
	pow []float64
}

// factor returns math.Pow(1-1/p, step), computed once per (p, step).
func (g *gssTable) factor(p, step int) float64 {
	if g.p != p {
		g.p, g.pow = p, g.pow[:0]
	}
	for len(g.pow) <= step {
		g.pow = append(g.pow, math.Pow(1-1/float64(p), float64(len(g.pow))))
	}
	return g.pow[step]
}

// intraCacheCap bounds the slice-indexed intra-schedule cache per node;
// chunk lengths at or above it (rare, e.g. full-scale inter-STATIC slabs)
// use the one-entry cache plus the process-wide memo.
const intraCacheCap = 1 << 14

// harnessPool holds retired cell arenas: harness scratch plus the engine and
// MPI world attached to it. Sweep workers draw from it so a thousand-cell
// sweep reuses a handful of arenas instead of rebuilding the simulated
// machine per cell (DESIGN.md §8).
var harnessPool sync.Pool

// Arena-pool telemetry: how many cells drew a recycled arena versus built a
// fresh one, and how many arenas were returned after clean runs. The gap
// between gets and puts counts arenas abandoned after executor errors.
// Exposed by hdlsd's /metrics to observe pool behavior under live traffic.
var (
	arenaReuses atomic.Int64
	arenaBuilds atomic.Int64
	arenaPuts   atomic.Int64
)

// ArenaStats reports process-wide simulation-arena pool counters: cells
// served by a recycled arena, cells that built a fresh arena, and arenas
// returned to the pool after clean runs.
func ArenaStats() (reuses, builds, puts int64) {
	return arenaReuses.Load(), arenaBuilds.Load(), arenaPuts.Load()
}

// newHarness returns a run-ready harness for c: a pooled arena reinitialized
// in place when one is available, a freshly built one otherwise. The two are
// observationally identical — Engine.Reset and World.Reset restore the
// exact NewEngine/NewWorld starting state, and every scratch structure below
// is resized and zeroed explicitly.
func newHarness(c *Config) *harness {
	h, _ := harnessPool.Get().(*harness)
	if h == nil {
		h = &harness{eng: sim.NewEngine(c.Seed)}
		h.startMPIMPIFn, h.startMPIOpenMPFn, h.startNoWaitFn = h.startMPIMPI, h.startMPIOpenMP, h.startNoWait
		arenaBuilds.Add(1)
	} else {
		h.eng.Reset(c.Seed)
		arenaReuses.Add(1)
	}
	h.eng.SetInterrupt(c.Interrupt)
	n := c.Workload.N()
	nodes := c.Cluster.Nodes
	h.cfgVal = *c
	h.cfg = &h.cfgVal
	h.prof = c.Workload
	h.nWorkers = 0
	h.wPerNode = resizeZeroed(h.wPerNode, nodes)
	h.wOff = resizeZeroed(h.wOff, nodes)
	for node := 0; node < nodes; node++ {
		h.wPerNode[node] = c.workersOn(node)
		h.wOff[node] = h.nWorkers
		h.nWorkers += h.wPerNode[node]
	}
	h.finish = resizeZeroed(h.finish, h.nWorkers)
	h.compute = resizeZeroed(h.compute, h.nWorkers)
	h.bitmap = resizeZeroed(h.bitmap, (n+63)/64)
	h.executed = 0
	h.globalChunks, h.localChunks = 0, 0
	h.lockAtt, h.lockAcq = 0, 0
	h.barrierWait = 0
	if cap(h.intraCache) < nodes {
		h.intraCache = make([][]dls.Schedule, nodes)
	} else {
		h.intraCache = h.intraCache[:nodes]
		for node := range h.intraCache {
			cache := h.intraCache[node]
			for i := range cache {
				cache[i] = nil
			}
		}
	}
	h.intraBigLen = resizeZeroed(h.intraBigLen, nodes)
	h.intraBig = resizeZeroed(h.intraBig, nodes)
	for len(h.gssDecay) < nodes {
		h.gssDecay = append(h.gssDecay, gssTable{})
	}
	h.sigma = h.prof.CoV() * h.prof.Mean()
	h.tr = nil
	if c.CollectTrace {
		h.tr = trace.New(h.nWorkers) // escapes into the Result; never pooled
	}
	return h
}

// release returns a cleanly finished harness to the arena pool. Callers must
// not release after an executor error: a failed run can leave queued events
// behind, and such an arena is abandoned to the GC instead
// (Engine.Reset would refuse it anyway).
func (h *harness) release() {
	h.cfg = nil
	h.cfgVal = Config{}
	h.prof = nil
	h.tr = nil
	arenaPuts.Add(1)
	harnessPool.Put(h)
}

// resizeZeroed returns s resized to n zeroed entries, reusing capacity.
func resizeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// newWorld returns the cell's MPI world: the pooled world reset in place
// when the harness came from the arena pool (byte-identical to a fresh one
// by World.Reset's contract), or a newly built one otherwise.
func (h *harness) newWorld(cfg *cluster.Config, ranksPerNode int) (*mpi.World, error) {
	if h.world != nil {
		if err := h.world.Reset(h.eng, cfg, ranksPerNode); err != nil {
			return nil, err
		}
		return h.world, nil
	}
	w, err := mpi.NewWorld(h.eng, cfg, ranksPerNode)
	if err != nil {
		return nil, err
	}
	h.world = w
	return w, nil
}

// interP returns the number of requesters the global queue serves.
//
// Under MPI+OpenMP only the per-node ranks request chunks, so P = nodes.
// Under MPI+MPI every rank participates in the distributed chunk
// calculation, so dynamic techniques use P = nodes × WorkersPerNode —
// finer global chunks that the local queues subdivide (this is what lets
// the proposed approach track the ideal time in Figs. 5–7). STATIC is the
// exception on both sides: a static division is decided "prior to
// execution" across the node groups (one N/nodes slab per node, the
// paper's "STATIC is the first level of scheduling (the inter-node
// scheduling)"), which is why Fig. 4 shows the two approaches matching.
func (h *harness) interP() int {
	if h.cfg.Approach == MPIMPI && h.cfg.Inter != dls.STATIC {
		return h.nWorkers
	}
	return h.cfg.Cluster.Nodes
}

// nodeOfWorker maps a flat worker index back to its hosting node.
func (h *harness) nodeOfWorker(w int) int {
	for node := len(h.wOff) - 1; node > 0; node-- {
		if w >= h.wOff[node] {
			return node
		}
	}
	return 0
}

// interSchedule builds the global-queue schedule for interP requesters.
// Weighted factoring at the inter level (the heterogeneity extension) takes
// its per-requester weights from the cluster's node speeds.
func (h *harness) interSchedule(p int) dls.Schedule {
	params := dls.Params{
		N: h.prof.N(), P: p,
		Mean: h.prof.Mean(), Sigma: h.sigma,
		Overhead: 3e-6, // FSC: global scheduling op ≈ one remote atomic
	}
	if h.cfg.Inter == dls.WF {
		weights := make([]float64, p)
		for i := range weights {
			node := i
			if p > h.cfg.Cluster.Nodes {
				node = h.nodeOfWorker(i) // requesters are ranks
			}
			weights[i] = h.cfg.Cluster.Speed(node)
		}
		params.Weights = weights
	}
	// Non-adaptive inter schedules are pure: identical cells across a sweep
	// share one immutable memoized instance.
	return dls.Shared(h.cfg.Inter, params)
}

// intraChunkSize returns the sub-chunk size for a chunk of length origLen at
// intra scheduling step, requested by node-local worker w. The intra-level
// worker count is the hosting node's (per-node on heterogeneous machines).
func (h *harness) intraChunkSize(node, origLen, step, w int) int {
	c := h.cfg
	nw := h.wPerNode[node]
	switch c.Intra {
	case dls.SS:
		return 1
	case dls.STATIC:
		return (origLen + nw - 1) / nw
	case dls.GSS:
		p := float64(nw)
		if p == 1 {
			if step == 0 {
				return origLen
			}
			return 1
		}
		f := float64(origLen) / p * h.gssDecay[node].factor(nw, step)
		s := int(math.Ceil(f))
		if s < 1 {
			s = 1
		}
		return s
	}
	// Intra schedules are pure functions of their parameters, so identical
	// (technique, N, P, mean, sigma) cells — and identical chunk lengths in
	// other nodes or other sweep cells — share one immutable schedule from
	// the process-wide memo. Steady-state lengths are small and repeat
	// heavily, so they index a per-node slice (allocation- and hash-free);
	// the few large one-off lengths (e.g. an inter-STATIC slab at full
	// scale) go straight to the memo instead of inflating the slice.
	if origLen >= intraCacheCap {
		// One-entry per-node cache: a large chunk is consumed sub-chunk by
		// sub-chunk before the next appears, so the same length repeats.
		if h.intraBigLen[node] != origLen {
			h.intraBig[node] = dls.Shared(c.Intra, dls.Params{
				N: origLen, P: nw,
				Mean: h.prof.Mean(), Sigma: h.sigma,
				Overhead: 3e-6,
			})
			h.intraBigLen[node] = origLen
		}
		return h.intraBig[node].Chunk(step, w)
	}
	cache := h.intraCache[node]
	if origLen < len(cache) {
		if sched := cache[origLen]; sched != nil {
			return sched.Chunk(step, w)
		}
	} else {
		grown := make([]dls.Schedule, origLen+1)
		copy(grown, cache)
		cache = grown
		h.intraCache[node] = cache
	}
	sched := dls.Shared(c.Intra, dls.Params{
		N: origLen, P: nw,
		Mean: h.prof.Mean(), Sigma: h.sigma,
		Overhead: 3e-6,
	})
	cache[origLen] = sched
	return sched.Chunk(step, w)
}

// execute accounts one executed range for worker w: coverage bitmap,
// compute time, finish time, and the optional trace event.
func (h *harness) execute(w, node, a, b int, start, end sim.Time) {
	if a < b {
		h.mark(w, a, b)
	}
	h.executed += b - a
	h.compute[w] += end - start
	if end > h.finish[w] {
		h.finish[w] = end
	}
	if h.tr != nil {
		h.tr.Add(trace.Event{
			Worker: w, Node: node, Kind: trace.KindExec,
			Start: start, End: end, IterStart: a, IterEnd: b,
		})
	}
}

// mark sets coverage bits for the non-empty range [a, b) with whole-word
// operations: overlap detection is one AND per word, setting one OR. The
// double-execution panic is byte-compatible with the per-iteration loop —
// it names the lowest doubly-executed iteration.
func (h *harness) mark(w, a, b int) {
	wa, wb := a>>6, (b-1)>>6
	maskA := ^uint64(0) << uint(a&63)
	maskB := ^uint64(0) >> uint(63-(b-1)&63)
	if wa == wb {
		m := maskA & maskB
		if dup := h.bitmap[wa] & m; dup != 0 {
			h.panicTwice(wa, dup, w)
		}
		h.bitmap[wa] |= m
		return
	}
	if dup := h.bitmap[wa] & maskA; dup != 0 {
		h.panicTwice(wa, dup, w)
	}
	h.bitmap[wa] |= maskA
	for i := wa + 1; i < wb; i++ {
		if h.bitmap[i] != 0 {
			h.panicTwice(i, h.bitmap[i], w)
		}
		h.bitmap[i] = ^uint64(0)
	}
	if dup := h.bitmap[wb] & maskB; dup != 0 {
		h.panicTwice(wb, dup, w)
	}
	h.bitmap[wb] |= maskB
}

// panicTwice reports the first doubly-executed iteration in word idx.
func (h *harness) panicTwice(idx int, dup uint64, w int) {
	i := idx*64 + bits.TrailingZeros64(dup)
	panic(fmt.Sprintf("core: iteration %d executed twice (worker %d)", i, w))
}

func (h *harness) checkCoverage() error {
	n := h.prof.N()
	if h.executed != n {
		return fmt.Errorf("core: executed %d of %d iterations", h.executed, n)
	}
	for i := range h.bitmap {
		want := ^uint64(0)
		if hi := n - i*64; hi < 64 {
			want >>= uint(64 - hi)
		}
		if miss := want &^ h.bitmap[i]; miss != 0 {
			return fmt.Errorf("core: iteration %d never executed", i*64+bits.TrailingZeros64(miss))
		}
	}
	if h.tr != nil {
		if err := h.tr.Validate(n); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) makespan() sim.Time {
	var m sim.Time
	for _, f := range h.finish {
		if f > m {
			m = f
		}
	}
	return m
}

// summary computes the compact outcome with the same floating-point
// arithmetic as result() plus the stats the sweep drivers derive from it
// (node-finish CoV as in hdls.RunRobustness, imbalance as in result).
func (h *harness) summary() Summary {
	h.finF = resizeZeroed(h.finF, len(h.finish))
	fin := h.finF
	for i, f := range h.finish {
		fin[i] = float64(f)
	}
	h.nodeF = resizeZeroed(h.nodeF, h.cfg.Cluster.Nodes)
	nf := h.nodeF
	for node := range nf {
		var m sim.Time
		for w := h.wOff[node]; w < h.wOff[node]+h.wPerNode[node]; w++ {
			if h.finish[w] > m {
				m = h.finish[w]
			}
		}
		nf[node] = float64(m)
	}
	return Summary{
		ParallelTime:     h.makespan(),
		NodeFinishCoV:    stats.CoV(nf),
		LoadImbalance:    stats.LoadImbalance(fin),
		Workers:          h.nWorkers,
		GlobalChunks:     h.globalChunks,
		LocalChunks:      h.localChunks,
		LockAttempts:     h.lockAtt,
		LockAcquisitions: h.lockAcq,
		BarrierWait:      h.barrierWait,
	}
}

func (h *harness) result() *Result {
	fin := make([]float64, len(h.finish))
	for i, f := range h.finish {
		fin[i] = float64(f)
	}
	nodeFinish := make([]sim.Time, h.cfg.Cluster.Nodes)
	for node := range nodeFinish {
		for w := h.wOff[node]; w < h.wOff[node]+h.wPerNode[node]; w++ {
			if h.finish[w] > nodeFinish[node] {
				nodeFinish[node] = h.finish[w]
			}
		}
	}
	return &Result{
		Approach:         h.cfg.Approach,
		Inter:            h.cfg.Inter,
		Intra:            h.cfg.Intra,
		Nodes:            h.cfg.Cluster.Nodes,
		Workers:          h.nWorkers,
		NodeWorkers:      append([]int(nil), h.wPerNode...),
		NodeFinish:       nodeFinish,
		ParallelTime:     h.makespan(),
		WorkerFinish:     append([]sim.Time(nil), h.finish...),
		WorkerCompute:    append([]sim.Time(nil), h.compute...),
		LoadImbalance:    stats.LoadImbalance(fin),
		GlobalChunks:     h.globalChunks,
		LocalChunks:      h.localChunks,
		LockAttempts:     h.lockAtt,
		LockAcquisitions: h.lockAcq,
		BarrierWait:      h.barrierWait,
		Trace:            h.tr,
	}
}
