package core

import (
	"fmt"

	"repro/dls"
	"repro/internal/mpi"
	"repro/internal/openmp"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mapIntraToOpenMP(t dls.Technique) (openmp.ScheduleKind, error) {
	return openmp.MapTechnique(t)
}

// runMPIOpenMP executes the hierarchical MPI+OpenMP baseline: one MPI rank
// per node fetches chunks via distributed chunk calculation and executes
// each with an OpenMP worksharing loop (implicit barrier after every
// chunk — the overhead the proposed approach removes). Ranks and threads
// are continuation machines, like the MPI+MPI executor's (DESIGN.md §8).
func (h *harness) runMPIOpenMP() error {
	c := h.cfg
	world, err := h.newWorld(&c.Cluster, 1)
	if err != nil {
		return err
	}
	kind, err := mapIntraToOpenMP(c.Intra)
	if err != nil {
		return err
	}
	for len(h.ompRanks) < c.Cluster.Nodes {
		h.ompRanks = append(h.ompRanks, newOMPRank(h))
	}
	for node := 0; node < c.Cluster.Nodes; node++ {
		o := h.ompRanks[node]
		if o.team == nil {
			o.team, err = openmp.NewTeam(h.eng, &c.Cluster, node, h.wPerNode[node])
		} else {
			err = o.team.Reset(h.eng, &c.Cluster, node, h.wPerNode[node])
		}
		if err != nil {
			return err
		}
		o.loop.Schedule, o.loop.Chunk = kind, c.IntraChunk
	}
	h.inter = h.interSchedule(h.interP())
	h.finished = 0

	if err := world.Launch(h.startMPIOpenMPFn); err != nil {
		return err
	}
	if h.finished != world.Size() {
		return fmt.Errorf("core: %d of %d MPI+OpenMP ranks stalled", world.Size()-h.finished, world.Size())
	}
	return nil
}

// startMPIOpenMP is Launch's start function: rank r (one per node) creates
// the global window and enters the barrier that starts its rank loop.
func (h *harness) startMPIOpenMP(r *mpi.Rank) {
	o := h.ompRanks[r.Node()]
	o.r = r
	r.World().Comm().WinAllocateCont(r, "global-queue", 2, o.gotGlobalFn)
}

// ompRank is one node's MPI+OpenMP rank machine and its thread team, kept
// by the harness across the cells of a pooled arena with every step func
// bound once: obtain a global chunk, execute it as a worksharing loop,
// repeat. The rank retires (harness.finished) where it finds the global
// queue exhausted.
type ompRank struct {
	chunkFetch // got = scheduled
	r          *mpi.Rank
	team       *openmp.Team
	// loop is the worksharing loop of every chunk; its Schedule and Chunk
	// are set per cell, its N per chunk.
	loop openmp.For

	// Per cell, set during setup.
	node, master int // thread tid is worker master+tid
	gw           *mpi.Win
	schedT0      sim.Time
	base         int // the current chunk's first iteration

	gotGlobalFn func(*mpi.Win)
	runFn       func()
	executedFn  func(openmp.ForResult)
}

func newOMPRank(h *harness) *ompRank {
	o := &ompRank{}
	o.bind(h, o.scheduled)
	o.gotGlobalFn = o.gotGlobal
	o.runFn = o.run
	o.executedFn = o.executed
	o.loop.RangeCost, o.loop.Visit = o.rangeCost, o.visit
	return o
}

// gotGlobal runs where the rank leaves the global window's creation.
func (o *ompRank) gotGlobal(gw *mpi.Win) {
	o.gw = gw
	o.r.World().Comm().BarrierCont(o.r, o.runFn)
}

// run leaves the setup barrier: it resets the rank for this cell and
// fetches the first chunk.
func (o *ompRank) run() {
	o.eng = o.h.eng
	o.node = o.r.Node()
	o.requester = o.node
	o.master = o.h.wOff[o.node]
	o.size, o.base = 0, 0
	o.fop = o.gw.NewFetchAndOpCont(o.r)
	o.fetchChunk()
}

// fetchChunk starts a global chunk request.
func (o *ompRank) fetchChunk() {
	o.schedT0 = o.eng.Now()
	o.fetch()
}

func (o *ompRank) scheduled(start int64) {
	h := o.h
	h.traceSched(o.master, o.node, trace.KindSchedGlobal, o.schedT0, o.eng.Now())
	n := h.prof.N()
	if int(start) >= n {
		h.finished++
		return
	}
	o.base = int(start)
	end := o.base + o.size
	if end > n {
		end = n
	}
	h.globalChunks++
	o.loop.N = end - o.base
	o.team.ParallelFor(o.loop, o.executedFn)
}

// executed runs where the master leaves the loop's implicit barrier.
func (o *ompRank) executed(res openmp.ForResult) {
	h := o.h
	h.barrierWait += res.BarrierWait
	if h.tr != nil {
		// Record each thread's barrier idle interval.
		for tid, fin := range res.ThreadFinish {
			if res.MaxFinish > fin {
				h.tr.Add(trace.Event{
					Worker: o.master + tid, Node: o.node,
					Kind: trace.KindBarrier, Start: fin, End: res.MaxFinish,
				})
			}
		}
	}
	o.fetchChunk()
}

func (o *ompRank) rangeCost(a, b int) sim.Time {
	return o.h.prof.Range(o.base+a, o.base+b)
}

func (o *ompRank) visit(tid, a, b int, t0, t1 sim.Time) {
	o.h.execute(o.master+tid, o.node, o.base+a, o.base+b, t0, t1)
	o.h.localChunks++
}

// threadMPIPenalty is the extra per-call cost of MPI_THREAD_MULTIPLE
// (runtime-internal locking) paid by threads issuing MPI calls.
const threadMPIPenalty = 0.6 * sim.Microsecond

// runMPIOpenMPNoWait implements the paper's future-work variant: OpenMP
// threads never meet a barrier; whichever thread drains the chunk fetches
// the next one via MPI while the others keep executing or briefly poll.
// The implementation mirrors the "many synchronization statements" the
// paper warns about: a per-node refill lock plus polling on the shared
// chunk descriptor.
func (h *harness) runMPIOpenMPNoWait() error {
	c := h.cfg
	world, err := h.newWorld(&c.Cluster, 1)
	if err != nil {
		return err
	}
	if _, err := mapIntraToOpenMP(c.Intra); err != nil {
		return err
	}
	for len(h.nowaitNodes) < c.Cluster.Nodes {
		h.nowaitNodes = append(h.nowaitNodes, newNoWaitNode(h))
	}
	h.inter = h.interSchedule(h.interP())
	h.finished = 0

	if err := world.Launch(h.startNoWaitFn); err != nil {
		return err
	}
	if h.finished != world.Size() {
		return fmt.Errorf("core: %d of %d MPI+OpenMP(nowait) ranks stalled", world.Size()-h.finished, world.Size())
	}
	return nil
}

// startNoWait is Launch's start function: rank r (one per node) creates
// the global window and enters the barrier that starts its node's threads.
func (h *harness) startNoWait(r *mpi.Rank) {
	nd := h.nowaitNodes[r.Node()]
	nd.r = r
	r.World().Comm().WinAllocateCont(r, "global-queue", 2, nd.gotGlobalFn)
}

// nowaitNode is one node's machine under the nowait extension: the rank
// that starts the node's threads, the current chunk plus refill
// coordination, and one machine per thread. The shared state lives in
// host memory; the simulated costs (atomics, MPI calls, polling) are
// charged explicitly. The harness keeps one per node across the cells of a
// pooled arena, with every step func bound once.
type nowaitNode struct {
	// One chunk fetch serves the node, got = scheduled: the refill flag
	// admits one MPI caller at a time.
	chunkFetch
	r  *mpi.Rank
	gw *mpi.Win

	// Per cell, reset by run.
	node, threads        int
	cur, end, step, orig int // the current chunk
	exhausted            bool
	refilling            bool       // a thread holds the refill lock
	atomicPort           sim.Server // serializes sub-chunk grabs
	refiller             int        // worker index of the lock holder
	resume               func()     // the lock holder's next grab
	schedT0              sim.Time
	retired              int

	thr         []*nowaitThread
	gotGlobalFn func(*mpi.Win)
	runFn       func()
}

func newNoWaitNode(h *harness) *nowaitNode {
	nd := &nowaitNode{}
	nd.bind(h, nd.scheduled)
	nd.gotGlobalFn, nd.runFn = nd.gotGlobal, nd.run
	return nd
}

// gotGlobal runs where the rank leaves the global window's creation.
func (nd *nowaitNode) gotGlobal(gw *mpi.Win) {
	nd.gw = gw
	nd.r.World().Comm().BarrierCont(nd.r, nd.runFn)
}

// run leaves the setup barrier and starts the node's threads: threads
// 1..T−1 in events at the current instant, in thread order, then thread 0
// inline. Each thread loops grab → execute until the global queue is
// exhausted; a thread that finds the chunk drained takes the refill lock
// and fetches the next chunk under MPI_THREAD_MULTIPLE, or polls if another
// thread holds it. The rank retires (harness.finished) when the node's
// last thread does.
func (nd *nowaitNode) run() {
	h := nd.h
	nd.eng = h.eng
	nd.node = nd.r.Node()
	nd.requester = nd.node
	nd.threads = h.wPerNode[nd.node]
	nd.cur, nd.end, nd.step, nd.orig = 0, 0, 0, 0
	nd.exhausted, nd.refilling = false, false
	nd.atomicPort = sim.Server{}
	nd.refiller, nd.resume, nd.schedT0, nd.size, nd.retired = 0, nil, 0, 0, 0
	nd.fop = nd.gw.NewFetchAndOpCont(nd.r)
	for len(nd.thr) < nd.threads {
		nd.thr = append(nd.thr, newNoWaitThread(nd))
	}
	for tid, th := range nd.thr[:nd.threads] {
		th.tid, th.worker = tid, h.wOff[nd.node]+tid
		th.a, th.sz, th.t0 = 0, 0, 0
	}
	now := nd.eng.Now()
	for _, th := range nd.thr[1:nd.threads] {
		nd.eng.ScheduleAsOf(now, now, th.grabFn)
	}
	nd.thr[0].grab()
}

func (nd *nowaitNode) scheduled(start64 int64) {
	h := nd.h
	h.traceSched(nd.refiller, nd.node, trace.KindSchedGlobal, nd.schedT0, nd.eng.Now())
	n := h.prof.N()
	if start := int(start64); start >= n {
		nd.exhausted = true
	} else {
		end := start + nd.size
		if end > n {
			end = n
		}
		h.globalChunks++
		nd.orig = end - start
		nd.step = 0
		nd.cur, nd.end = start, end
	}
	nd.refilling = false
	nd.resume()
}

// nowaitThread is one thread's machine under the nowait extension.
type nowaitThread struct {
	nd                            *nowaitNode
	tid, worker                   int
	a, sz                         int // the sub-chunk in flight
	t0                            sim.Time
	grabFn, grabbedFn, executedFn func()
}

func newNoWaitThread(nd *nowaitNode) *nowaitThread {
	th := &nowaitThread{nd: nd}
	th.grabFn, th.grabbedFn, th.executedFn = th.grab, th.grabbed, th.executed
	return th
}

// grab serves one sub-chunk grab's atomic at the node's port.
func (th *nowaitThread) grab() {
	nd := th.nd
	now := nd.eng.Now()
	fin := nd.atomicPort.ServeAsync(now, nd.h.cfg.Cluster.Mem.LocalAtomic)
	nd.eng.ScheduleAsOf(now+(fin-now), now, th.grabbedFn)
}

// grabbed runs at the sub-chunk grab's atomic completion.
func (th *nowaitThread) grabbed() {
	nd := th.nd
	h, eng := nd.h, nd.eng
	now := eng.Now()
	if nd.cur < nd.end {
		th.sz = h.intraChunkSize(nd.node, nd.orig, nd.step, th.tid)
		if th.sz > nd.end-nd.cur {
			th.sz = nd.end - nd.cur
		}
		th.a = nd.cur
		nd.cur += th.sz
		nd.step++
		h.localChunks++
		th.t0 = now
		d := h.cfg.Cluster.ExecTime(nd.node, h.prof.Range(th.a, th.a+th.sz), th.t0, eng.Rand())
		eng.ScheduleAsOf(th.t0+d, th.t0, th.executedFn)
		return
	}
	if nd.exhausted {
		if nd.retired++; nd.retired == nd.threads {
			h.finished++
		}
		return
	}
	if !nd.refilling {
		// Chunk drained: this thread refills via MPI.
		nd.refilling = true
		nd.refiller, nd.resume = th.worker, th.grabFn
		nd.schedT0 = now
		eng.ScheduleAsOf(now+threadMPIPenalty, now, nd.fetchFn)
		return
	}
	// Another thread is refilling: poll briefly.
	eng.ScheduleAsOf(now+sim.Microsecond, now, th.grabFn)
}

func (th *nowaitThread) executed() {
	th.nd.h.execute(th.worker, th.nd.node, th.a, th.a+th.sz, th.t0, th.nd.eng.Now())
	th.grab()
}
