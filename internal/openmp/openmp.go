// Package openmp models an OpenMP runtime on the simulated cluster: thread
// teams pinned to one node's cores, worksharing loops with the standard
// schedule clauses (static, dynamic, guided) and — mirroring the
// LaPeSD-libGOMP extension the paper cites as future work — the research
// schedules TSS, FAC2 and RANDOM.
//
// The model reproduces the two properties the paper's comparison hinges on:
//
//  1. Worksharing loops end in an implicit barrier; per-loop idle time is
//     max(thread finish) − thread finish, which the executor accumulates.
//  2. dynamic/guided chunk grabs are hardware atomics on a shared cache
//     line, orders of magnitude cheaper than MPI passive-target locks; they
//     serialize on a per-team port so contention still emerges.
package openmp

import (
	"fmt"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// ScheduleKind selects the worksharing schedule.
type ScheduleKind int

// Schedule kinds: the three standard OpenMP clauses plus the extended
// research schedules of LaPeSD-libGOMP.
const (
	ScheduleStatic ScheduleKind = iota
	ScheduleDynamic
	ScheduleGuided
	ScheduleTSS
	ScheduleFAC2
	ScheduleRandom
)

func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	case ScheduleTSS:
		return "tss"
	case ScheduleFAC2:
		return "fac2"
	case ScheduleRandom:
		return "random"
	}
	return fmt.Sprintf("ScheduleKind(%d)", int(k))
}

// Extended reports whether the schedule requires the extended
// (libGOMP-style) runtime rather than a stock vendor runtime.
func (k ScheduleKind) Extended() bool {
	return k == ScheduleTSS || k == ScheduleFAC2 || k == ScheduleRandom
}

// MapTechnique translates a DLS technique to the OpenMP schedule clause per
// the paper's Table 1 (STATIC→static, SS→dynamic,1, GSS→guided,1). TSS and
// FAC2 map onto the extended runtime schedules; everything else is
// unsupported, matching the limitation the paper works around.
func MapTechnique(t dls.Technique) (ScheduleKind, error) {
	switch t {
	case dls.STATIC:
		return ScheduleStatic, nil
	case dls.SS:
		return ScheduleDynamic, nil
	case dls.GSS:
		return ScheduleGuided, nil
	case dls.TSS:
		return ScheduleTSS, nil
	case dls.FAC2:
		return ScheduleFAC2, nil
	case dls.RND:
		return ScheduleRandom, nil
	}
	return 0, fmt.Errorf("openmp: no schedule clause for technique %v", t)
}

// Team is a thread team pinned to one node. Thread 0 is the master — the
// calling MPI rank — and the remaining threads are forked per worksharing
// loop and joined at its end, as fork–join semantics dictate. Every thread
// is a continuation machine driven by the team's engine.
type Team struct {
	eng     *sim.Engine
	cl      *cluster.Config
	node    int
	threads int

	// atomicPort serializes dynamic/guided chunk grabs (one cache line).
	atomicPort sim.Server

	// Costs, set to their defaults by NewTeam and Reset.
	ForkJoin sim.Time // fork + join overhead charged to the master per loop
	Barrier  sim.Time // implicit-barrier signalling cost per thread

	// Accumulated statistics across loops.
	BarrierWait sim.Time // Σ idle time at implicit barriers
	Loops       int
	Chunks      int

	// spare is a finished loop object kept for the next ParallelFor.
	spare *loop
}

// NewTeam creates a team of the given size on node.
func NewTeam(eng *sim.Engine, cl *cluster.Config, node, threads int) (*Team, error) {
	t := &Team{}
	if err := t.Reset(eng, cl, node, threads); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset reinitializes t in place as the team NewTeam(eng, cl, node,
// threads) builds: default costs, a free atomic port, zeroed statistics.
// A pooled team keeps its spare loop object, thread machines included,
// when its size and engine are unchanged, so a warm team builds nothing.
// It must not be called while a loop of the team is in flight.
func (t *Team) Reset(eng *sim.Engine, cl *cluster.Config, node, threads int) error {
	if threads <= 0 || threads > cl.Cores(node) {
		return fmt.Errorf("openmp: team of %d threads on %d-core node", threads, cl.Cores(node))
	}
	spare := t.spare
	if spare != nil && (t.eng != eng || t.threads != threads) {
		spare = nil // its machines are bound to the old engine or size
	}
	*t = Team{
		eng:      eng,
		cl:       cl,
		node:     node,
		threads:  threads,
		ForkJoin: 1.5 * sim.Microsecond,
		Barrier:  0.8 * sim.Microsecond,
		spare:    spare,
	}
	return nil
}

// For describes one worksharing loop over [0, N).
type For struct {
	N        int
	Schedule ScheduleKind
	// Chunk is the schedule clause's chunk argument: the fixed size for
	// dynamic, the minimum for guided. 0 means the OpenMP default (1).
	Chunk int
	// RangeCost returns the reference-core cost of iterations [a, b).
	RangeCost func(a, b int) sim.Time
	// Visit, if non-nil, observes each executed range with its thread id
	// and execution interval — the hook the tracer uses.
	Visit func(thread, a, b int, start, end sim.Time)
	// NoWait skips the implicit barrier: the master returns as soon as its
	// own work is done. (Loop-level nowait; the paper's cross-chunk nowait
	// pipeline is modelled by the executor in internal/core.)
	NoWait bool
}

// ForResult reports one loop execution.
type ForResult struct {
	// ThreadFinish is the absolute finish time per thread. The slice
	// belongs to the loop object, which the team reuses for its next
	// ParallelFor: cont may read it but must not keep it.
	ThreadFinish []sim.Time
	MaxFinish    sim.Time
	BarrierWait  sim.Time // Σ (MaxFinish − finish), 0 under NoWait
	Chunks       int
}

// loopState is the shared worksharing state of one loop instance.
type loopState struct {
	next           int // first unassigned iteration (dynamic/guided/extended)
	step           int // scheduling step (extended schedules)
	sched          dls.Schedule
	assignedStatic []bool // static: whether a thread took its block
	cyclicPos      []int  // static,k: next strip start per thread
}

// loop is one worksharing loop's state plus its threads' machines. Once a
// loop has fully finished — every thread retired and the master left — the
// team keeps the object, machines included, for its next loop.
type loop struct {
	t       *Team
	f       For
	st      loopState
	res     ForResult
	ndone   int  // threads that passed the implicit barrier
	chunks  int  // ranges executed so far
	joined  bool // the master waits at the join for the other threads
	left    bool // the master has left the loop
	cont    func(ForResult)
	threads []thread
	// fork, join and leave bound once as event callbacks.
	forkFn, joinFn, leaveFn func()
}

// thread is one team thread's machine: its range in flight and its step
// callbacks, bound once per loop object. Under static schedules step takes
// the thread's next precomputed range and schedules its completion, exec,
// which visits the range and steps again; under the dynamic family grab
// serves one atomic at the team port, grabbed takes a chunk from the shared
// state at the service completion and schedules the chunk's completion,
// executed, which visits it and grabs again. Either way the exhausted
// thread pays the barrier signalling cost and retires.
type thread struct {
	a, b                    int
	start                   sim.Time
	step, exec              func() // static schedules
	grab, grabbed, executed func() // dynamic family
	barrier, retire         func()
}

// ParallelFor runs worksharing loop f on the team, starting from inside the
// master's current engine event, and calls cont with the loop's result
// where the master leaves the loop: at the implicit barrier's release, or,
// under NoWait, as soon as its own share is done. The master pays the fork
// overhead, then threads 1..T−1 start as continuation machines and thread 0
// runs the same chain inline in the master's events.
func (t *Team) ParallelFor(f For, cont func(ForResult)) {
	if f.N < 0 {
		panic("openmp: negative loop size")
	}
	if f.RangeCost == nil {
		panic("openmp: For.RangeCost is required")
	}
	lp := t.spare
	if lp == nil {
		lp = t.newLoop()
	}
	t.spare = nil
	lp.f, lp.cont = f, cont
	lp.res = ForResult{ThreadFinish: lp.res.ThreadFinish}
	clear(lp.res.ThreadFinish)
	lp.ndone, lp.chunks, lp.joined, lp.left = 0, 0, false, false
	st := &lp.st
	st.next, st.step, st.sched = 0, 0, nil
	clear(st.assignedStatic)
	st.cyclicPos = st.cyclicPos[:0]
	switch f.Schedule {
	case ScheduleTSS:
		st.sched = dls.MustNew(dls.TSS, dls.Params{N: f.N, P: t.threads})
	case ScheduleFAC2:
		st.sched = dls.MustNew(dls.FAC2, dls.Params{N: f.N, P: t.threads})
	}
	now := t.eng.Now()
	t.eng.ScheduleAsOf(now+t.ForkJoin, now, lp.forkFn)
}

// newLoop builds a loop object and its threads' machines.
func (t *Team) newLoop() *loop {
	lp := &loop{t: t, threads: make([]thread, t.threads)}
	lp.res.ThreadFinish = make([]sim.Time, t.threads)
	lp.forkFn, lp.joinFn, lp.leaveFn = lp.fork, lp.join, lp.leave
	eng, f, st := t.eng, &lp.f, &lp.st
	for tid := range lp.threads {
		th := &lp.threads[tid]
		th.retire = func() { lp.retire(tid) }
		th.barrier = func() {
			now := eng.Now()
			eng.ScheduleAsOf(now+t.Barrier, now, th.retire)
		}
		th.exec = func() {
			if f.Visit != nil {
				f.Visit(tid, th.a, th.b, th.start, eng.Now())
			}
			th.step()
		}
		th.step = func() {
			th.a, th.b = t.staticRange(f, st, tid)
			if th.a >= th.b {
				th.barrier()
				return
			}
			lp.chunks++
			th.start = eng.Now()
			d := t.cl.ExecTime(t.node, f.RangeCost(th.a, th.b), th.start, eng.Rand())
			eng.ScheduleAsOf(th.start+d, th.start, th.exec)
		}
		th.executed = func() {
			lp.chunks++
			if f.Visit != nil {
				f.Visit(tid, th.a, th.b, th.start, eng.Now())
			}
			th.grab()
		}
		th.grabbed = func() {
			th.a, th.b = t.take(f, st, tid)
			now := eng.Now()
			if th.a >= th.b {
				eng.ScheduleAsOf(now, now, th.barrier)
				return
			}
			th.start = now
			d := t.cl.ExecTime(t.node, f.RangeCost(th.a, th.b), th.start, eng.Rand())
			eng.ScheduleAsOf(th.start+d, th.start, th.executed)
		}
		th.grab = func() {
			now := eng.Now()
			doneAt := t.atomicPort.ServeAsync(now, t.cl.Mem.LocalAtomic)
			eng.ScheduleAsOf(now+(doneAt-now), now, th.grabbed)
		}
	}
	return lp
}

// fork runs at the end of the master's fork overhead: it starts the worker
// threads, each in an event at the current instant, in thread order, and
// then runs thread 0's first step inline.
func (lp *loop) fork() {
	lp.t.Loops++
	first := func(th *thread) func() {
		if lp.f.Schedule == ScheduleStatic {
			return th.step
		}
		return th.grab
	}
	eng := lp.t.eng
	now := eng.Now()
	for tid := 1; tid < len(lp.threads); tid++ {
		eng.ScheduleAsOf(now, now, first(&lp.threads[tid]))
	}
	first(&lp.threads[0])()
}

// retire records thread tid passing the implicit barrier. The master then
// joins: it leaves at once when every thread is done (or under NoWait), and
// otherwise waits. A worker retiring while the master waits wakes it in an
// event at the current instant; the woken master re-checks and either
// leaves or waits again.
func (lp *loop) retire(tid int) {
	lp.res.ThreadFinish[tid] = lp.t.eng.Now()
	lp.ndone++
	if tid == 0 {
		lp.join()
		return
	}
	if lp.joined {
		lp.joined = false
		now := lp.t.eng.Now()
		lp.t.eng.ScheduleAsOf(now, now, lp.joinFn)
	}
	lp.recycle()
}

// join runs wherever the master checks the barrier.
func (lp *loop) join() {
	if !lp.f.NoWait && lp.ndone < lp.t.threads {
		lp.joined = true
		return
	}
	res := &lp.res
	for _, fin := range res.ThreadFinish {
		if fin > res.MaxFinish {
			res.MaxFinish = fin
		}
	}
	if !lp.f.NoWait {
		for _, fin := range res.ThreadFinish {
			res.BarrierWait += res.MaxFinish - fin
		}
		// Join: the master leaves at the barrier-release time.
		if now := lp.t.eng.Now(); res.MaxFinish > now {
			lp.t.eng.ScheduleAsOf(now+(res.MaxFinish-now), now, lp.leaveFn)
			return
		}
	}
	lp.leave()
}

// leave completes the loop's accounting and hands the result to the master.
func (lp *loop) leave() {
	t := lp.t
	t.BarrierWait += lp.res.BarrierWait
	t.Chunks += lp.chunks
	lp.res.Chunks = lp.chunks
	lp.left = true
	res, cont := lp.res, lp.cont
	lp.recycle()
	cont(res)
}

// recycle hands a fully finished loop object back to the team.
func (lp *loop) recycle() {
	if lp.left && lp.ndone == len(lp.threads) {
		lp.cont = nil
		lp.t.spare = lp
	}
}

// staticRange returns thread tid's next range [a, b) under a static
// schedule: its precomputed contiguous block, or the next strip of static,k.
// a >= b signals that the thread's share is exhausted. Static schedules
// have no runtime cost beyond the fork.
func (t *Team) staticRange(f *For, st *loopState, tid int) (int, int) {
	if f.Chunk > 0 {
		// static,k: round-robin strips of k; executed as one merged visit
		// per strip to bound event counts.
		return t.staticCyclic(st, f, tid)
	}
	T := t.threads
	if st.assignedStatic == nil {
		st.assignedStatic = make([]bool, T)
	}
	if st.assignedStatic[tid] {
		return f.N, f.N
	}
	st.assignedStatic[tid] = true
	return f.N * tid / T, f.N * (tid + 1) / T
}

// take is the post-service half of a dynamic-family chunk grab: it reads
// and updates the shared loop state at the atomic's completion instant.
func (t *Team) take(f *For, st *loopState, tid int) (int, int) {
	T := t.threads
	if st.next >= f.N {
		return f.N, f.N
	}
	var c int
	switch f.Schedule {
	case ScheduleDynamic:
		c = f.Chunk
		if c <= 0 {
			c = 1
		}
	case ScheduleGuided:
		k := f.Chunk
		if k <= 0 {
			k = 1
		}
		rem := f.N - st.next
		c = (rem + T - 1) / T
		if c < k {
			c = k
		}
	case ScheduleTSS, ScheduleFAC2:
		c = st.sched.Chunk(st.step, tid)
		st.step++
	case ScheduleRandom:
		maxC := (f.N - st.next + T - 1) / T
		if maxC < 1 {
			maxC = 1
		}
		c = 1 + t.eng.Rand().Intn(maxC)
	default:
		panic(fmt.Sprintf("openmp: unknown schedule %v", f.Schedule))
	}
	a := st.next
	st.next = minInt(a+c, f.N)
	return a, st.next
}

// staticCyclic hands thread tid its full round-robin strip set as one range
// per call, k iterations at a time in cyclic order. To keep the event count
// linear in strips (not iterations), each call returns one strip.
func (t *Team) staticCyclic(st *loopState, f *For, tid int) (int, int) {
	k := f.Chunk
	T := t.threads
	if len(st.cyclicPos) == 0 {
		for i := 0; i < T; i++ {
			st.cyclicPos = append(st.cyclicPos, i*k)
		}
	}
	a := st.cyclicPos[tid]
	if a >= f.N {
		return f.N, f.N
	}
	b := minInt(a+k, f.N)
	st.cyclicPos[tid] = a + T*k
	return a, b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
