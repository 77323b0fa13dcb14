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
	teams := make([]*openmp.Team, c.Cluster.Nodes)
	for node := range teams {
		if teams[node], err = openmp.NewTeam(h.eng, &c.Cluster, node, h.wPerNode[node]); err != nil {
			return err
		}
	}
	inter := h.interSchedule(h.interP())
	finished := 0
	fin := func() { finished++ }

	err = world.Launch(func(r *mpi.Rank) {
		world.Comm().WinAllocateCont(r, "global-queue", 2, func(gw *mpi.Win) {
			world.Comm().BarrierCont(r, func() {
				h.mpiopenmpRank(r, gw, teams[r.Node()], kind, inter, fin)
			})
		})
	})
	if err != nil {
		return err
	}
	if finished != world.Size() {
		return fmt.Errorf("core: %d of %d MPI+OpenMP ranks stalled", world.Size()-finished, world.Size())
	}
	return nil
}

// mpiopenmpRank is one node's rank loop: obtain a global chunk — two
// Fetch_and_ops around the local chunk calculation — execute it as a
// worksharing loop, repeat. done runs where the rank finds the global queue
// exhausted.
func (h *harness) mpiopenmpRank(r *mpi.Rank, gw *mpi.Win, team *openmp.Team, kind openmp.ScheduleKind, inter interSched, done func()) {
	c := h.cfg
	eng := h.eng
	node := r.Node()
	master := h.wOff[node] // thread tid is worker master+tid
	n := h.prof.N()
	fop := gw.NewFetchAndOpCont(r)
	var (
		schedT0 sim.Time
		size    int // the current chunk's calculated size
		base    int // the current chunk's first iteration
		next    func()
	)
	loop := openmp.For{
		Schedule: kind,
		Chunk:    c.IntraChunk,
		RangeCost: func(a, b int) sim.Time {
			return h.prof.Range(base+a, base+b)
		},
		Visit: func(tid, a, b int, t0, t1 sim.Time) {
			h.execute(master+tid, node, base+a, base+b, t0, t1)
			h.localChunks++
		},
	}
	// executed runs where the master leaves the loop's implicit barrier.
	executed := func(res openmp.ForResult) {
		h.barrierWait += res.BarrierWait
		if h.tr != nil {
			// Record each thread's barrier idle interval.
			for tid, fin := range res.ThreadFinish {
				if res.MaxFinish > fin {
					h.tr.Add(trace.Event{
						Worker: master + tid, Node: node,
						Kind: trace.KindBarrier, Start: fin, End: res.MaxFinish,
					})
				}
			}
		}
		next()
	}
	scheduled := func(start int64) {
		h.traceSched(master, node, trace.KindSchedGlobal, schedT0, eng.Now())
		if int(start) >= n {
			done()
			return
		}
		base = int(start)
		end := base + size
		if end > n {
			end = n
		}
		h.globalChunks++
		loop.N = end - base
		team.ParallelFor(loop, executed)
	}
	calculated := func() { fop(0, gwScheduled, int64(size), scheduled) }
	stepped := func(step int64) {
		size = inter.Chunk(int(step), node)
		now := eng.Now()
		eng.ScheduleAsOf(now+c.ChunkCalcCost, now, calculated)
	}
	next = func() {
		schedT0 = eng.Now()
		fop(0, gwStep, 1, stepped)
	}
	next()
}

// nowaitState is the per-node shared state of the nowait extension: the
// current chunk plus refill coordination. It lives in host memory; the
// simulated costs (atomics, MPI calls, polling) are charged explicitly.
type nowaitState struct {
	cur, end, step, orig int
	exhausted            bool
	refilling            bool       // a thread holds the refill lock
	atomicPort           sim.Server // serializes sub-chunk grabs
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
	inter := h.interSchedule(h.interP())
	finished := 0
	fin := func() { finished++ }

	err = world.Launch(func(r *mpi.Rank) {
		world.Comm().WinAllocateCont(r, "global-queue", 2, func(gw *mpi.Win) {
			world.Comm().BarrierCont(r, func() {
				h.nowaitNode(r, gw, inter, fin)
			})
		})
	})
	if err != nil {
		return err
	}
	if finished != world.Size() {
		return fmt.Errorf("core: %d of %d MPI+OpenMP(nowait) ranks stalled", world.Size()-finished, world.Size())
	}
	return nil
}

// nowaitNode starts one node's threads: threads 1..T−1 in events at the
// current instant, in thread order, then thread 0 inline. Each thread loops
// grab → execute until the global queue is exhausted; a thread that finds
// the chunk drained takes the refill lock and fetches the next chunk under
// MPI_THREAD_MULTIPLE, or polls if another thread holds it. done runs when
// the node's last thread retires.
func (h *harness) nowaitNode(r *mpi.Rank, gw *mpi.Win, inter interSched, done func()) {
	c := h.cfg
	eng := h.eng
	node := r.Node()
	n := h.prof.N()
	threads := h.wPerNode[node]
	st := &nowaitState{}
	// One Fetch_and_op issuer serves the node: the refill lock admits one
	// MPI caller at a time.
	fop := gw.NewFetchAndOpCont(r)
	var (
		refiller int    // worker index of the lock holder
		resume   func() // the lock holder's next grab
		schedT0  sim.Time
		size     int
		retired  int
	)
	scheduled := func(start64 int64) {
		h.traceSched(refiller, node, trace.KindSchedGlobal, schedT0, eng.Now())
		if start := int(start64); start >= n {
			st.exhausted = true
		} else {
			end := start + size
			if end > n {
				end = n
			}
			h.globalChunks++
			st.orig = end - start
			st.step = 0
			st.cur, st.end = start, end
		}
		st.refilling = false
		resume()
	}
	calculated := func() { fop(0, gwScheduled, int64(size), scheduled) }
	stepped := func(step int64) {
		size = inter.Chunk(int(step), node)
		now := eng.Now()
		eng.ScheduleAsOf(now+c.ChunkCalcCost, now, calculated)
	}
	refill := func() { fop(0, gwStep, 1, stepped) }

	thread := func(tid int) func() {
		worker := h.wOff[node] + tid
		var (
			a, sz int
			t0    sim.Time
			grab  func()
		)
		executed := func() {
			h.execute(worker, node, a, a+sz, t0, eng.Now())
			grab()
		}
		// grabbed runs at the sub-chunk grab's atomic completion.
		grabbed := func() {
			now := eng.Now()
			if st.cur < st.end {
				sz = h.intraChunkSize(node, st.orig, st.step, tid)
				if sz > st.end-st.cur {
					sz = st.end - st.cur
				}
				a = st.cur
				st.cur += sz
				st.step++
				h.localChunks++
				t0 = now
				d := c.Cluster.ExecTime(node, h.prof.Range(a, a+sz), t0, eng.Rand())
				eng.ScheduleAsOf(t0+d, t0, executed)
				return
			}
			if st.exhausted {
				if retired++; retired == threads {
					done()
				}
				return
			}
			if !st.refilling {
				// Chunk drained: this thread refills via MPI.
				st.refilling = true
				refiller, resume = worker, grab
				schedT0 = now
				eng.ScheduleAsOf(now+threadMPIPenalty, now, refill)
				return
			}
			// Another thread is refilling: poll briefly.
			eng.ScheduleAsOf(now+sim.Microsecond, now, grab)
		}
		grab = func() {
			now := eng.Now()
			fin := st.atomicPort.ServeAsync(now, c.Cluster.Mem.LocalAtomic)
			eng.ScheduleAsOf(now+(fin-now), now, grabbed)
		}
		return grab
	}
	now := eng.Now()
	for tid := 1; tid < threads; tid++ {
		eng.ScheduleAsOf(now, now, thread(tid))
	}
	thread(0)()
}
