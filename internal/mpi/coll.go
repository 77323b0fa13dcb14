package mpi

import (
	"fmt"
	"math"

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

// newComm builds a communicator over the given contiguous world ranks. The
// ranks slice is owned by the communicator afterwards.
func newComm(w *World, ranks []int, name string) *Comm {
	return &Comm{world: w, ranks: ranks, name: name, seqOf: make([]int, len(ranks))}
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
// is memoized so every rank of a node receives the same *Comm. Ranks are
// placed contiguously by node, so construction is O(ranks on the node).
func (w *World) SplitTypeShared(r *Rank) *Comm {
	if w.nodeComms == nil {
		w.nodeComms = make([]*Comm, w.cfg.Nodes)
	}
	n := r.node
	if w.nodeComms[n] == nil {
		members := make([]int, w.nodeRanks[n])
		for i := range members {
			members[i] = w.nodeOff[n] + i
		}
		w.nodeComms[n] = newComm(w, members, fmt.Sprintf("node%d", n))
	}
	return w.nodeComms[n]
}

// collState tracks one in-flight collective operation on a communicator.
type collState struct {
	seq     int
	arrived int
	passed  int
	// conts holds the continuations of the ranks that arrived before the
	// last, in arrival order.
	conts   []func()
	payload any
	kind    string
	next    *collState // freelist link
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
			st.payload = nil
		}
		st.kind = kind
		st.seq = seq
		c.collRing[idx] = st
	} else if st.kind != kind {
		panic(fmt.Sprintf("mpi: collective mismatch on %s: %s vs %s", c.name, st.kind, kind))
	}
	return st
}

// arriveCont records r's arrival at a synchronizing collective: cont runs
// cost after the last rank arrives. When the last rank arrives the waiters
// are released in arrival order — each release event, at the arrival
// instant, schedules its rank's continuation cost later — and the last
// arriver's own continuation is scheduled right after the releases.
func (c *Comm) arriveCont(r *Rank, st *collState, cost sim.Time, cont func()) {
	st.arrived++
	if st.arrived < c.Size() {
		st.conts = append(st.conts, cont)
		return
	}
	eng := c.world.eng
	now := eng.Now()
	for _, wc := range st.conts {
		wc := wc
		eng.ScheduleAsOf(now, now, func() {
			eng.ScheduleAsOf(now+cost, now, wc)
		})
	}
	st.conts = st.conts[:0]
	eng.ScheduleAsOf(now+cost, now, cont)
}

// leave retires the state once every rank has passed through. States retire
// in sequence order (a rank passes collective k before entering k+1), so
// retirement slides the ring window forward and recycles the state.
func (c *Comm) leave(r *Rank, st *collState) {
	st.passed++
	if st.passed == c.Size() {
		c.collRing[st.seq-c.collBase] = nil
		for len(c.collRing) > 0 && c.collRing[0] == nil {
			c.collRing = c.collRing[1:]
			c.collBase++
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
	st := c.enter(r, "barrier")
	c.arriveCont(r, st, c.latencyCost(2, 0), func() {
		c.leave(r, st)
		cont()
	})
}
