package mpi

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/sim"
)

// Comm is a communicator: an ordered group of world ranks. Comm rank i is
// world rank ranks[i]. Every communicator — the world one and the
// node-local ones of SplitTypeShared — covers a contiguous world-rank range,
// so RankOf is a subtraction.
type Comm struct {
	world *World
	ranks []int
	name  string
	// In-flight collective states, indexed seq − collBase. States retire in
	// sequence order (every rank passes collective k before entering k+1),
	// so the window is a short sliding slice; retired states recycle through
	// collFree, which keeps steady-state collectives allocation-free.
	collRing []*collState
	collBase int
	collFree *collState
	// seqOf[commRank] is that rank's next collective sequence number — the
	// per-comm call counter that enforces "all ranks invoke collectives in
	// the same order" without a per-rank map.
	seqOf []int
	nodes int // distinct nodes spanned (computed lazily)
}

// reset makes c the communicator over the size contiguous world ranks
// starting at first, with no collective in flight, keeping its backing
// arrays and its recycled collective states.
func (c *Comm) reset(w *World, first, size int) {
	c.world = w
	c.ranks = resizeZeroed(c.ranks, size)
	for i := range c.ranks {
		c.ranks[i] = first + i
	}
	c.seqOf = resizeZeroed(c.seqOf, size)
	clear(c.collRing)
	c.collRing = c.collRing[:0]
	c.collBase = 0
	c.nodes = 0
}

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Name returns the communicator's debug name.
func (c *Comm) Name() string { return c.name }

// RankOf returns r's rank within c, or -1 if r is not a member.
func (c *Comm) RankOf(r *Rank) int {
	i := r.rank - c.ranks[0]
	if i < 0 || i >= len(c.ranks) {
		return -1
	}
	return i
}

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.ranks[commRank] }

// spansNodes reports how many distinct nodes the communicator covers.
func (c *Comm) spansNodes() int {
	if c.nodes == 0 {
		// Contiguous world ranks cover a contiguous node range.
		c.nodes = c.world.ranks[c.ranks[len(c.ranks)-1]].node -
			c.world.ranks[c.ranks[0]].node + 1
	}
	return c.nodes
}

// SplitTypeShared models MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): it
// returns the communicator of all world ranks sharing r's node. The result
// is memoized so every rank of a node receives the same *Comm, and a pooled
// world keeps it across cells (World.Reset). Ranks are placed contiguously
// by node, so construction is O(ranks on the node).
func (w *World) SplitTypeShared(r *Rank) *Comm {
	n := r.node
	if w.nodeComms[n] == nil {
		c := &Comm{name: "node" + strconv.Itoa(n)}
		c.reset(w, w.nodeOff[n], w.nodeRanks[n])
		w.nodeComms[n] = c
	}
	return w.nodeComms[n]
}

// collState tracks one in-flight collective operation on a communicator.
type collState struct {
	seq     int
	arrived int
	passed  int
	// exits[i] is the exit record of the i-th rank to arrive; the records
	// are kept when the state is recycled.
	exits []*collExit
	win   *Win // the window a "winalloc" collective creates
	kind  string
	next  *collState // freelist link
}

// collExit is one rank's pending exit from a synchronizing collective: its
// continuation (cont, or winCont for a window allocation) and the events
// that reach it, bound once per record. A record belongs to one state of
// one communicator for life.
type collExit struct {
	c       *Comm
	st      *collState
	cont    func()
	winCont func(*Win)
	// at and born are the exit event's position, set when the last rank
	// arrives.
	at, born          sim.Time
	releaseFn, exitFn func()
}

// release is a waiter's release event at the last arrival's instant: it
// schedules the waiter's exit after the collective's cost.
func (x *collExit) release() { x.c.world.eng.ScheduleAsOf(x.at, x.born, x.exitFn) }

// exit leaves the collective and runs the rank's continuation. The record
// and its state may be recycled by leave, so everything is read first.
func (x *collExit) exit() {
	c, st, cont, winCont := x.c, x.st, x.cont, x.winCont
	win := st.win
	c.leave(st)
	if winCont != nil {
		winCont(win)
		return
	}
	cont()
}

// enter locates (or creates) the state for this rank's next collective call
// on c, enforcing that all ranks invoke collectives in the same order.
// Lookup is O(1): the per-rank sequence counter indexes the sliding window
// of in-flight states, and retired states are recycled from a freelist.
func (c *Comm) enter(r *Rank, kind string) *collState {
	me := c.RankOf(r)
	seq := c.seqOf[me]
	c.seqOf[me] = seq + 1
	idx := seq - c.collBase
	for idx >= len(c.collRing) {
		c.collRing = append(c.collRing, nil)
	}
	st := c.collRing[idx]
	if st == nil {
		st = c.collFree
		if st == nil {
			st = &collState{}
		} else {
			c.collFree = st.next
			st.next = nil
			st.arrived, st.passed = 0, 0
			st.win = nil
		}
		st.kind = kind
		st.seq = seq
		c.collRing[idx] = st
	} else if st.kind != kind {
		panic(fmt.Sprintf("mpi: collective mismatch on %s: %s vs %s", c.name, st.kind, kind))
	}
	return st
}

// arriveCont records a rank's arrival at a synchronizing collective: its
// continuation (cont, or winCont holding the state's window) runs cost after
// the last rank arrives. When the last rank arrives the waiters are
// released in arrival order — each release event, at the arrival instant,
// schedules its rank's exit cost later — and the last arriver's own exit is
// scheduled right after the releases.
func (c *Comm) arriveCont(st *collState, cost sim.Time, cont func(), winCont func(*Win)) {
	if st.arrived == len(st.exits) {
		x := &collExit{c: c, st: st}
		x.releaseFn, x.exitFn = x.release, x.exit
		st.exits = append(st.exits, x)
	}
	x := st.exits[st.arrived]
	x.cont, x.winCont = cont, winCont
	st.arrived++
	if st.arrived < c.Size() {
		return
	}
	eng := c.world.eng
	now := eng.Now()
	for _, wx := range st.exits[:st.arrived-1] {
		wx.at, wx.born = now+cost, now
		eng.ScheduleAsOf(now, now, wx.releaseFn)
	}
	eng.ScheduleAsOf(now+cost, now, x.exitFn)
}

// leave retires the state once every rank has passed through. States retire
// in sequence order (a rank passes collective k before entering k+1), so
// retirement slides the ring window forward, in place, and recycles the
// state.
func (c *Comm) leave(st *collState) {
	st.passed++
	if st.passed == c.Size() {
		c.collRing[st.seq-c.collBase] = nil
		k := 0
		for k < len(c.collRing) && c.collRing[k] == nil {
			k++
		}
		if k > 0 {
			n := copy(c.collRing, c.collRing[k:])
			clear(c.collRing[n:])
			c.collRing = c.collRing[:n]
			c.collBase += k
		}
		st.next = c.collFree
		c.collFree = st
	}
}

// latencyCost models a tree collective: depth × per-hop cost, where the
// per-hop cost is the network latency for multi-node communicators and a
// cheap shared-memory flag for node-local ones, plus a bandwidth term.
func (c *Comm) latencyCost(rounds int, bytes int) sim.Time {
	w := c.world
	depth := sim.Time(math.Ceil(math.Log2(float64(c.Size()))))
	if c.Size() == 1 {
		return 0
	}
	var perHop sim.Time
	if c.spansNodes() > 1 {
		perHop = w.cfg.Net.Latency + w.cfg.Net.PortService +
			sim.Time(float64(bytes)/w.cfg.Net.Bandwidth)
	} else {
		perHop = 4*w.cfg.Mem.LocalAtomic + sim.Time(float64(bytes)/w.cfg.Mem.CopyBandwidth)
	}
	return sim.Time(rounds) * depth * perHop
}

// BarrierCont enters an MPI_Barrier on c: cont runs once every rank of c
// has entered, after the barrier's tree-latency cost.
func (c *Comm) BarrierCont(r *Rank, cont func()) {
	c.arriveCont(c.enter(r, "barrier"), c.latencyCost(2, 0), cont, nil)
}
