package core

import (
	"fmt"

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
	inter := h.interSchedule(h.interP())
	n := h.prof.N()
	ringWords := lqBase + c.QueueCapacity*lqWords

	// Per-node window handles are filled in during setup (every rank of a
	// node receives the same *Win from the collective allocation).
	localWins := make([]*mpi.Win, c.Cluster.Nodes)
	finished := 0
	fin := func() { finished++ }

	start := func(r *mpi.Rank) {
		world.Comm().WinAllocateCont(r, "global-queue", 2, func(gw *mpi.Win) {
			nodeComm := world.SplitTypeShared(r)
			nodeComm.WinAllocateSharedCont(r, fmt.Sprintf("local-queue-%d", r.Node()), ringWords, func(lw *mpi.Win) {
				localWins[r.Node()] = lw
				w := nodeComm.RankOf(r)
				world.Comm().BarrierCont(r, func() {
					h.mpimpiWorker(r, gw, lw, w, inter, n, fin)
				})
			})
		})
	}

	runErr := world.Launch(start)
	lastRunPushes.Store(uint64(world.Engine().PushStamp()))
	if runErr != nil {
		return runErr
	}
	if finished != world.Size() {
		return fmt.Errorf("core: %d of %d MPI+MPI ranks stalled", world.Size()-finished, world.Size())
	}
	for _, lw := range localWins {
		if lw == nil {
			continue
		}
		h.lockAtt += lw.LockAttempts
		h.lockAcq += lw.LockAcquisitions
	}
	return nil
}

// mpimpiWorker is the §3 worker loop. w is the node-local rank.
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
// at all. done is called once, at the rank's literal retirement position.
func (h *harness) mpimpiWorker(r *mpi.Rank, gw, lw *mpi.Win, w int, inter interSched, n int, done func()) {
	c := h.cfg
	node := r.Node()
	worker := r.Rank() // world rank == global worker index (one rank/core)

	ws := c.Cluster.Mem.WinSync
	cc := c.ChunkCalcCost
	// q is the node's local-queue window memory: the exclusive lock guards
	// every access, so the executor indexes it directly (one locality check
	// at setup instead of per word).
	q := lw.Shared(r, 0)

	var (
		a, b     int
		size     int // current refill's global chunk size
		start    sim.Time
		schedT0  sim.Time
		schedKnd trace.Kind
		lockCont func()
		fopSched func(int64)
		eng      = h.eng
	)
	fop := gw.NewFetchAndOpCont(r)

	// execEnd fires at sub-chunk completion — the position of the literal
	// Compute wake-up — accounts the executed range, and issues the next
	// lock attempt: the steady state is pure event processing.
	execEnd := func() {
		h.execute(worker, node, a, b, start, eng.Now())
		schedT0 = eng.Now()
		lockCont()
	}

	// execCont runs at the unlock release, exactly where the literal worker
	// resumed to execute its sub-chunk [a, b).
	execCont := func(release sim.Time) {
		h.traceSched(worker, node, schedKnd, schedT0, release)
		start = release
		if a < b {
			d := r.ComputeCost(h.prof.Range(a, b))
			eng.AbsorbAsOf(release+d, release, execEnd)
		} else {
			eng.AbsorbAsOf(release, release, execEnd)
		}
	}
	// exitCont runs at the unlock release on the queue-drained path — where
	// the literal rank resumed only to return; the machine rank retires.
	exitCont := func(release sim.Time) {
		h.traceSched(worker, node, trace.KindSchedLocal, schedT0, release)
		done()
	}
	// doneExit retires the rank after it published global exhaustion — the
	// position where the literal rank resumed from its unlock and returned.
	doneExit := func(release sim.Time) {
		h.traceSched(worker, node, trace.KindSchedGlobal, schedT0, release)
		done()
	}
	unlockExec := lw.NewUnlockCont(r, 0, mpi.LockExclusive, execCont)
	unlockExit := lw.NewUnlockCont(r, 0, mpi.LockExclusive, exitCont)
	unlockDone := lw.NewUnlockCont(r, 0, mpi.LockExclusive, doneExit)

	// fopSched completes the refill: it fires where the literal rank
	// resumed from its second Fetch_and_op, holding the obtained range.
	fopSched = func(gstart64 int64) {
		gstart := int(gstart64)
		if gstart >= n {
			// Global queue exhausted: publish completion to the node.
			q[lqDone] = 1
			now := eng.Now()
			unlockDone(now+ws, now)
			return
		}
		end := gstart + size
		if end > n {
			end = n
		}
		h.globalChunks++

		// Stage 3: install the chunk and take this worker's own sub-chunk
		// within the same critical section.
		cnt := int(q[lqCount])
		if cnt >= c.QueueCapacity {
			panic("core: local work queue overflow")
		}
		head := int(q[lqHead])
		slot := (head + cnt) % c.QueueCapacity
		base := lqBase + slot*lqWords
		q[base+entCur] = int64(gstart)
		q[base+entEnd] = int64(end)
		q[base+entStep] = 0
		q[base+entOrig] = int64(end - gstart)
		q[lqCount] = int64(cnt + 1)
		a, b = h.takeHeadLocked(q, node, w)
		schedKnd = trace.KindSchedGlobal
		t1 := eng.Now() + cc // literal: chunk-calc wake
		unlockExec(t1+ws, t1)
	}
	// fopCalc runs at the literal chunk-calculation wake between the two
	// global atomics and issues the second one.
	fopCalc := func() {
		fop(0, gwScheduled, int64(size), fopSched)
	}
	// fopStep receives the scheduling step from the first global atomic,
	// computes the chunk size locally (distributed chunk calculation) and
	// waits out the calculation cost in an event.
	fopStep := func(step int64) {
		// The requester identity matters only for weighted techniques:
		// under MPI+MPI every rank is a requester, so pass the rank (its
		// node's speed weights it).
		requester := node
		if h.interP() > h.cfg.Cluster.Nodes {
			requester = r.Rank()
		}
		size = inter.Chunk(int(step), requester)
		now := eng.Now()
		eng.AbsorbAsOf(now+cc, now, fopCalc)
	}
	// refill runs stage 2 holding the queue lock — two atomics on the
	// global window — starting at the literal Sync wake position.
	refill := func() {
		fop(0, gwStep, 1, fopStep)
	}

	// granted runs at the event position where the literal worker resumed
	// holding the queue lock (Lock's first check or the poller's grant).
	granted := func() {
		// Stage 1: sub-chunk from the local queue. The exclusive lock is
		// held until the unlock release completes, so the reads and writes
		// here — literally interleaved with Sync and chunk-calculation
		// sleeps — see and leave exactly the same queue state (DESIGN.md §7).
		if q[lqCount] > 0 {
			a, b = h.takeHeadLocked(q, node, w)
			schedKnd = trace.KindSchedLocal
			t1 := r.Now() + ws // literal: Sync wake
			t2 := t1 + cc      // literal: chunk-calc wake
			unlockExec(t2+ws, t2)
			return
		}
		if q[lqDone] != 0 {
			t1 := r.Now() + ws
			unlockExit(t1+ws, t1)
			return
		}
		// Queue empty, not done: this worker refills from the global queue,
		// resuming at the literal Sync wake.
		now := r.Now()
		eng.AbsorbAsOf(now+ws, now, refill)
	}

	lockCont = lw.NewLockCont(r, 0, mpi.LockExclusive, granted)

	schedT0 = r.Now()
	lockCont()
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
