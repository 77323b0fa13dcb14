package core

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Global-queue window layout (hosted by world rank 0).
const (
	gwStep      = 0 // latest scheduling step
	gwScheduled = 1 // total scheduled iterations
)

// Local-queue shared-window layout (hosted at node rank 0). The queue is a
// ring of chunk entries plus a done flag, maintained under MPI_Win_lock
// exactly as §3 describes.
const (
	lqHead  = 0 // ring index of the oldest chunk
	lqCount = 1 // chunks currently queued
	lqDone  = 2 // set once the global queue is exhausted
	lqBase  = 3 // first ring entry
	lqWords = 4 // words per entry: cur, end, step, orig
)

const (
	entCur = iota
	entEnd
	entStep
	entOrig
)

// chunkFetch is one requester's distributed chunk calculation against the
// global queue (§3): a Fetch_and_op on the step counter, the chunk size
// computed locally from the step, and a Fetch_and_op on the scheduled
// iterations, each step in the event position a blocking caller's wake-up
// occupied. got receives the chunk's first iteration, with size holding
// its calculated size. Every executor's machine embeds one, bound once;
// its per-cell fields are set by the machine's setup.
type chunkFetch struct {
	h               *harness
	eng             *sim.Engine
	fop             func(target, offset int, delta int64, cont func(old int64))
	requester       int
	size            int
	got             func(start int64)
	fetchFn, calcFn func()
	steppedFn       func(int64)
}

func (f *chunkFetch) bind(h *harness, got func(start int64)) {
	f.h, f.got = h, got
	f.fetchFn, f.calcFn, f.steppedFn = f.fetch, f.calculated, f.stepped
}

// fetch issues the first global atomic.
func (f *chunkFetch) fetch() { f.fop(0, gwStep, 1, f.steppedFn) }

// stepped receives the scheduling step from the first global atomic,
// computes the chunk size locally and waits out the calculation cost in an
// event.
func (f *chunkFetch) stepped(step int64) {
	f.size = f.h.inter.Chunk(int(step), f.requester)
	now := f.eng.Now()
	f.eng.ScheduleAsOf(now+f.h.cfg.ChunkCalcCost, now, f.calcFn)
}

// calculated runs at the literal chunk-calculation wake and issues the
// second global atomic.
func (f *chunkFetch) calculated() { f.fop(0, gwScheduled, int64(f.size), f.got) }

// lastRunPushes records the main engine's queue-insertion count of the most
// recent MPI+MPI run, for TestEventCensus: wall-clock comparisons drown in
// host noise, but the number of engine events a cell costs is deterministic
// per configuration.
var lastRunPushes atomic.Uint64

// runMPIMPI executes the proposed hierarchical MPI+MPI approach: one MPI
// rank per core, a shared local work queue per node, distributed chunk
// calculation against the global window.
//
// Ranks are continuation machines (World.Launch): the setup collectives,
// the §3 worker loop and the rank's retirement all run as engine events at
// the exact positions a blocking rank's wake-ups occupied (DESIGN.md §8).
func (h *harness) runMPIMPI() error {
	c := h.cfg
	world, err := h.newWorld(&c.Cluster, c.WorkersPerNode)
	if err != nil {
		return err
	}
	h.inter = h.interSchedule(h.interP())
	// Per-node window handles are filled in during setup (every rank of a
	// node receives the same *Win from the collective allocation).
	h.localWins = resizeZeroed(h.localWins, c.Cluster.Nodes)
	for len(h.workers) < world.Size() {
		h.workers = append(h.workers, newMPIMPIWorker(h))
	}
	for len(h.lqNames) < c.Cluster.Nodes {
		h.lqNames = append(h.lqNames, "local-queue-"+strconv.Itoa(len(h.lqNames)))
	}
	h.finished = 0

	runErr := world.Launch(h.startMPIMPIFn)
	lastRunPushes.Store(uint64(world.Engine().PushStamp()))
	if runErr != nil {
		return runErr
	}
	if h.finished != world.Size() {
		return fmt.Errorf("core: %d of %d MPI+MPI ranks stalled", world.Size()-h.finished, world.Size())
	}
	for _, lw := range h.localWins {
		if lw == nil {
			continue
		}
		h.lockAtt += lw.LockAttempts
		h.lockAcq += lw.LockAcquisitions
	}
	return nil
}

// startMPIMPI is Launch's start function: it runs rank r's setup
// collectives on the rank's pooled machine.
func (h *harness) startMPIMPI(r *mpi.Rank) {
	wk := h.workers[r.Rank()]
	wk.r = r
	r.World().Comm().WinAllocateCont(r, "global-queue", 2, wk.gotGlobalFn)
}

// mpimpiWorker is one MPI+MPI rank's machine: its setup continuations, the
// §3 worker loop (w is the node-local rank) and its RMA issuers. The
// harness keeps one per world rank across the cells of a pooled arena;
// every step func is bound once, at construction, and the setup steps
// reset the per-cell fields before the loop starts.
//
// The worker first tries to obtain a sub-chunk from the node's local work
// queue. If the queue is empty, the worker — which at that moment *is* "the
// fastest MPI process within the compute node" (§3) — keeps holding the
// queue lock while it obtains a fresh chunk from the global work queue and
// installs it. Holding the lock across the fill serializes fills per node
// (teammates poll the lock meanwhile), which is what preserves one-chunk-
// per-node semantics under inter-node STATIC and prevents a thundering herd
// against the global window at startup.
//
// The worker is a pure event-driven state machine: the lock grant, the
// critical section, the unlock release, the compute dispatch AND the global
// refill's MPI calls all execute inside engine events at the exact (time,
// scheduling-position) keys the literal Lock/Sync/Sleep/Unlock/Compute/
// Fetch_and_op chain occupied (NewLockCont/NewUnlockCont/NewFetchAndOpCont/
// ComputeCost), so every run is byte-identical to the literal protocol —
// including noise draws and trace order — while the rank owns no goroutine
// at all. The rank retires (harness.finished) at its literal retirement
// position.
type mpimpiWorker struct {
	chunkFetch // the refill's two global atomics, got = fopSched
	r          *mpi.Rank

	// Per cell, set during setup.
	node, worker, w int // worker: world rank == global worker index
	gw, lw          *mpi.Win
	// q is the node's local-queue window memory: the exclusive lock guards
	// every access, so the executor indexes it directly (one locality check
	// at setup instead of per word).
	q      []int64
	ws, cc sim.Time

	// The loop's state.
	a, b     int
	start    sim.Time
	schedT0  sim.Time
	schedKnd trace.Kind

	// The cell's lock issuers, recycled from the rank.
	lock                               func()
	unlockExec, unlockExit, unlockDone func(arrival, born sim.Time)

	// Step funcs, bound once.
	gotGlobalFn, gotLocalFn            func(*mpi.Win)
	runFn, execEndFn, grantedFn        func()
	execContFn, exitContFn, doneExitFn func(release sim.Time)
}

func newMPIMPIWorker(h *harness) *mpimpiWorker {
	wk := &mpimpiWorker{}
	wk.bind(h, wk.fopSched)
	wk.gotGlobalFn, wk.gotLocalFn = wk.gotGlobal, wk.gotLocal
	wk.runFn, wk.execEndFn, wk.grantedFn = wk.run, wk.execEnd, wk.granted
	wk.execContFn, wk.exitContFn, wk.doneExitFn = wk.execCont, wk.exitCont, wk.doneExit
	return wk
}

// gotGlobal runs where the rank leaves the global window's creation: it
// splits the node communicator and creates the node's local queue.
func (wk *mpimpiWorker) gotGlobal(gw *mpi.Win) {
	wk.gw = gw
	r := wk.r
	ringWords := lqBase + wk.h.cfg.QueueCapacity*lqWords
	r.World().SplitTypeShared(r).WinAllocateSharedCont(r, wk.h.lqNames[r.Node()], ringWords, wk.gotLocalFn)
}

// gotLocal runs where the rank leaves the local queue's creation and
// enters the barrier that starts the worker loop.
func (wk *mpimpiWorker) gotLocal(lw *mpi.Win) {
	r := wk.r
	wk.h.localWins[r.Node()] = lw
	wk.lw = lw
	wk.w = r.World().SplitTypeShared(r).RankOf(r)
	r.World().Comm().BarrierCont(r, wk.runFn)
}

// run leaves the setup barrier: it resets the worker for this cell, takes
// the rank's issuers and issues the first lock attempt.
func (wk *mpimpiWorker) run() {
	h, r := wk.h, wk.r
	c := h.cfg
	wk.eng = h.eng
	wk.node = r.Node()
	wk.worker = r.Rank()
	// The requester identity matters only for weighted techniques: under
	// MPI+MPI every rank is a requester, so pass the rank (its node's speed
	// weights it).
	wk.requester = wk.node
	if h.interP() > c.Cluster.Nodes {
		wk.requester = r.Rank()
	}
	wk.ws = c.Cluster.Mem.WinSync
	wk.cc = c.ChunkCalcCost
	wk.q = wk.lw.Shared(r, 0)
	wk.a, wk.b, wk.size, wk.start, wk.schedKnd = 0, 0, 0, 0, 0

	wk.fop = wk.gw.NewFetchAndOpCont(r)
	wk.unlockExec = wk.lw.NewUnlockCont(r, 0, mpi.LockExclusive, wk.execContFn)
	wk.unlockExit = wk.lw.NewUnlockCont(r, 0, mpi.LockExclusive, wk.exitContFn)
	wk.unlockDone = wk.lw.NewUnlockCont(r, 0, mpi.LockExclusive, wk.doneExitFn)
	wk.lock = wk.lw.NewLockCont(r, 0, mpi.LockExclusive, wk.grantedFn)

	wk.schedT0 = r.Now()
	wk.lock()
}

// execEnd fires at sub-chunk completion — the position of the literal
// Compute wake-up — accounts the executed range, and issues the next lock
// attempt: the steady state is pure event processing.
func (wk *mpimpiWorker) execEnd() {
	now := wk.eng.Now()
	wk.h.execute(wk.worker, wk.node, wk.a, wk.b, wk.start, now)
	wk.schedT0 = now
	wk.lock()
}

// execCont runs at the unlock release, exactly where the literal worker
// resumed to execute its sub-chunk [a, b).
func (wk *mpimpiWorker) execCont(release sim.Time) {
	h := wk.h
	h.traceSched(wk.worker, wk.node, wk.schedKnd, wk.schedT0, release)
	wk.start = release
	if wk.a < wk.b {
		d := wk.r.ComputeCost(h.prof.Range(wk.a, wk.b))
		wk.eng.ScheduleAsOf(release+d, release, wk.execEndFn)
	} else {
		wk.eng.ScheduleAsOf(release, release, wk.execEndFn)
	}
}

// exitCont runs at the unlock release on the queue-drained path — where
// the literal rank resumed only to return; the machine rank retires.
func (wk *mpimpiWorker) exitCont(release sim.Time) {
	wk.h.traceSched(wk.worker, wk.node, trace.KindSchedLocal, wk.schedT0, release)
	wk.h.finished++
}

// doneExit retires the rank after it published global exhaustion — the
// position where the literal rank resumed from its unlock and returned.
func (wk *mpimpiWorker) doneExit(release sim.Time) {
	wk.h.traceSched(wk.worker, wk.node, trace.KindSchedGlobal, wk.schedT0, release)
	wk.h.finished++
}

// fopSched completes the refill: it fires where the literal rank resumed
// from its second Fetch_and_op, holding the obtained range.
func (wk *mpimpiWorker) fopSched(gstart64 int64) {
	h, q := wk.h, wk.q
	n := h.prof.N()
	gstart := int(gstart64)
	if gstart >= n {
		// Global queue exhausted: publish completion to the node.
		q[lqDone] = 1
		now := wk.eng.Now()
		wk.unlockDone(now+wk.ws, now)
		return
	}
	end := gstart + wk.size
	if end > n {
		end = n
	}
	h.globalChunks++

	// Stage 3: install the chunk and take this worker's own sub-chunk
	// within the same critical section.
	capacity := h.cfg.QueueCapacity
	cnt := int(q[lqCount])
	if cnt >= capacity {
		panic("core: local work queue overflow")
	}
	head := int(q[lqHead])
	slot := (head + cnt) % capacity
	base := lqBase + slot*lqWords
	q[base+entCur] = int64(gstart)
	q[base+entEnd] = int64(end)
	q[base+entStep] = 0
	q[base+entOrig] = int64(end - gstart)
	q[lqCount] = int64(cnt + 1)
	wk.a, wk.b = h.takeHeadLocked(q, wk.node, wk.w)
	wk.schedKnd = trace.KindSchedGlobal
	t1 := wk.eng.Now() + wk.cc // literal: chunk-calc wake
	wk.unlockExec(t1+wk.ws, t1)
}

// granted runs at the event position where the literal worker resumed
// holding the queue lock (Lock's first check or the poller's grant).
func (wk *mpimpiWorker) granted() {
	// Stage 1: sub-chunk from the local queue. The exclusive lock is held
	// until the unlock release completes, so the reads and writes here —
	// literally interleaved with Sync and chunk-calculation sleeps — see
	// and leave exactly the same queue state (DESIGN.md §7).
	q, ws := wk.q, wk.ws
	if q[lqCount] > 0 {
		wk.a, wk.b = wk.h.takeHeadLocked(q, wk.node, wk.w)
		wk.schedKnd = trace.KindSchedLocal
		t1 := wk.eng.Now() + ws // literal: Sync wake
		t2 := t1 + wk.cc        // literal: chunk-calc wake
		wk.unlockExec(t2+ws, t2)
		return
	}
	if q[lqDone] != 0 {
		t1 := wk.eng.Now() + ws
		wk.unlockExit(t1+ws, t1)
		return
	}
	// Queue empty, not done: this worker refills from the global queue —
	// stage 2, two atomics holding the queue lock — resuming at the
	// literal Sync wake.
	now := wk.eng.Now()
	wk.eng.ScheduleAsOf(now+ws, now, wk.fetchFn)
}

// takeHeadLocked removes one sub-chunk from the head chunk of node's local
// queue memory. The caller holds the queue lock and charges the
// chunk-calculation cost itself (the unlock continuation following each
// call covers it, positioned where the literal post-calculation wake-up
// fired).
func (h *harness) takeHeadLocked(q []int64, node, w int) (int, int) {
	c := h.cfg
	head := int(q[lqHead])
	base := lqBase + head*lqWords
	cur := int(q[base+entCur])
	end := int(q[base+entEnd])
	step := int(q[base+entStep])
	orig := int(q[base+entOrig])
	size := h.intraChunkSize(node, orig, step, w)
	if size > end-cur {
		size = end - cur
	}
	nxt := cur + size
	q[base+entCur] = int64(nxt)
	q[base+entStep] = int64(step + 1)
	if nxt >= end {
		q[lqHead] = int64((head + 1) % c.QueueCapacity)
		q[lqCount]--
	}
	h.localChunks++
	return cur, nxt
}

func (h *harness) traceSched(worker, node int, kind trace.Kind, t0, t1 sim.Time) {
	if h.tr == nil || t1 <= t0 {
		return
	}
	h.tr.Add(trace.Event{Worker: worker, Node: node, Kind: kind, Start: t0, End: t1})
}

// interSched is the subset of dls.Schedule the executors use.
type interSched interface {
	Chunk(step, worker int) int
}
