// Package mpi models an MPI-3 runtime on top of the discrete-event engine in
// internal/sim. It provides the subset of MPI the paper's executors rest on
// — barriers, window creation, passive-target RMA with the lock-polling
// protocol, MPI_Fetch_and_op, and MPI-3 shared-memory windows
// (MPI_Win_allocate_shared / MPI_Comm_split_type(SHARED)) — with explicit
// cost models taken from the cluster description.
//
// Ranks are continuation machines (World.Launch): every MPI call takes the
// continuation to run where a blocking caller would have resumed, and runs
// its own steps as engine events at the exact (time, scheduling-time) keys
// of the blocking protocol. Window memory is real Go memory touched only
// inside engine callbacks, so the model is race-free by construction while
// contention and queueing emerge from the Server ports.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// World is a set of ranks placed on a simulated cluster. Ranks are numbered
// contiguously by node: node n hosts ranks [nodeOff[n], nodeOff[n]+nodeRanks[n]).
// On a homogeneous machine that reduces to the classic rank r → node
// r/ranksPerNode placement.
type World struct {
	eng       *sim.Engine
	cfg       *cluster.Config
	nodeRanks []int // ranks hosted per node
	nodeOff   []int // first world rank of each node
	ranks     []*Rank

	// memPort serializes RMA operations (including lock attempts) targeting
	// windows hosted on a node. This is the resource whose saturation
	// produces the paper's lock-polling pathology. Each port also carries
	// the virtual lock-poller machinery (see rma.go): contended lock
	// callers register a poller instead of generating one host event per
	// retry, and their poll attempts are replayed arithmetically, in arrival
	// order, whenever the port or the lock state is touched.
	memPort []*rmaPort

	world     *Comm
	nodeComms []*Comm
	wins      []*Win
	// start is Launch's per-rank start function while the world runs.
	start func(*Rank)
	// winFree holds retired windows from earlier cells of a pooled world;
	// allocateWin reuses their backing arrays (see World.Reset).
	winFree []*Win

	// wakeFree pools wake-chain records (rma.go) so re-arming allocates
	// nothing in steady state.
	wakeFree *wakeRec
}

// NewWorld creates up to ranksPerNode ranks on each node of cfg: node n
// hosts min(ranksPerNode, cfg.Cores(n)) ranks — one rank per core, as in
// the paper's runs, with heterogeneous core counts capping naturally.
// ranksPerNode must be in 1..MaxCores.
func NewWorld(eng *sim.Engine, cfg *cluster.Config, ranksPerNode int) (*World, error) {
	w := &World{}
	if err := w.Reset(eng, cfg, ranksPerNode); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset reinitializes a pooled world in place for a new cell on eng (which
// the caller has already Reset). Topology slices, rank structs, RMA ports,
// communicators and window pools keep their backing allocations and are
// restored to their constructor state field by field, so a reused world
// behaves observationally identically to NewWorld(eng, cfg, ranksPerNode) —
// same rank placement, zeroed ports and counters, fresh collective state —
// and a warm world allocates nothing here. Each rank keeps the issuers its
// NewLockCont, NewUnlockCont and NewFetchAndOpCont calls built in earlier
// cells and hands them out again in call order. Retired windows move to the
// reuse pool so the next cell's WinAllocateCont recycles their memory
// (DESIGN.md §8).
func (w *World) Reset(eng *sim.Engine, cfg *cluster.Config, ranksPerNode int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ranksPerNode <= 0 || ranksPerNode > cfg.MaxCores() {
		return fmt.Errorf("mpi: ranksPerNode %d out of range 1..%d", ranksPerNode, cfg.MaxCores())
	}
	w.eng = eng
	w.cfg = cfg
	w.nodeRanks = resizeZeroed(w.nodeRanks, cfg.Nodes)
	w.nodeOff = resizeZeroed(w.nodeOff, cfg.Nodes)
	w.memPort = resizeSlice(w.memPort, cfg.Nodes)
	size := 0
	for n := 0; n < cfg.Nodes; n++ {
		if w.memPort[n] == nil {
			w.memPort[n] = &rmaPort{}
		} else {
			w.memPort[n].reset()
		}
		k := ranksPerNode
		if c := cfg.Cores(n); k > c {
			k = c
		}
		w.nodeRanks[n] = k
		w.nodeOff[n] = size
		size += k
	}
	w.ranks = resizeSlice(w.ranks, size)
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < w.nodeRanks[n]; c++ {
			i := w.nodeOff[n] + c
			r := w.ranks[i]
			if r == nil {
				r = &Rank{}
				r.launchFn = r.launch
				w.ranks[i] = r
			}
			r.world, r.rank, r.node, r.core = w, i, n, c
			r.nlock, r.nunlock, r.nfop = 0, 0, 0
		}
	}
	if w.world == nil {
		w.world = &Comm{name: "world"}
	}
	w.world.reset(w, 0, size)
	// Node communicators are split lazily (SplitTypeShared); pooled ones
	// are reset here, and their names depend only on the node index.
	w.nodeComms = resizeSlice(w.nodeComms, cfg.Nodes)
	for n, c := range w.nodeComms {
		if c != nil {
			c.reset(w, w.nodeOff[n], w.nodeRanks[n])
		}
	}
	// Retire this cell's windows into the reuse pool; their backing arrays
	// are re-zeroed at reallocation time (pooledWin).
	w.winFree = append(w.winFree, w.wins...)
	clear(w.wins)
	w.wins = w.wins[:0]
	return nil
}

// resizeZeroed returns s resized to n zeroed entries, reusing capacity.
func resizeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeSlice returns s resized to n entries, reusing capacity and KEEPING
// every entry the backing array holds, including those beyond the previous
// length: pooled structs from earlier, larger cells are reset in place
// rather than rebuilt. Entries never filled are nil.
func resizeSlice[T any](s []*T, n int) []*T {
	if cap(s) < n {
		grown := make([]*T, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

// RanksOn reports how many ranks node n hosts.
func (w *World) RanksOn(n int) int { return w.nodeRanks[n] }

// NodeOffset reports the first world rank hosted on node n.
func (w *World) NodeOffset(n int) int { return w.nodeOff[n] }

// Engine returns the owning simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Cluster returns the machine description.
func (w *World) Cluster() *cluster.Config { return w.cfg }

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return w.world }

// Rank returns rank r's handle.
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// MemPortBusy reports the cumulative RMA service time on node n's window
// port; used by overhead-accounting metrics and tests.
func (w *World) MemPortBusy(n int) sim.Time { return w.memPort[n].srv.BusyTime() }

// Launch drives the world: start is invoked for every rank, in rank order,
// inside an engine event at virtual time zero, and the engine then runs to
// completion. start builds the rank's event-driven state machine (the *Cont
// APIs) and returns; the run spawns no goroutines.
func (w *World) Launch(start func(*Rank)) error {
	w.start = start
	for _, r := range w.ranks {
		w.eng.Schedule(0, r.launchFn)
	}
	err := w.eng.Run()
	w.start = nil
	return err
}

// Rank is one MPI process.
type Rank struct {
	world *World
	rank  int
	node  int
	core  int

	// The issuers this rank's NewLockCont, NewUnlockCont and
	// NewFetchAndOpCont calls returned, kept across the cells of a pooled
	// world: the i-th call of a cell reuses the i-th issuer of its kind,
	// so a warm rank builds none. The counts restart at World.Reset.
	locks                []*lockIssuer
	unlocks              []*unlockIssuer
	fops                 []*fopIssuer
	nlock, nunlock, nfop int

	// launchFn is the rank's start event in Launch, bound once.
	launchFn func()
}

// launch runs the world's start function for r (see Launch).
func (r *Rank) launch() { r.world.start(r) }

// nextIssuer returns the next pooled issuer of a rank, building it on
// first use; *n counts the issuers of this kind handed out this cell.
func nextIssuer[T any](pool *[]*T, n *int) (is *T, fresh bool) {
	if *n == len(*pool) {
		*pool = append(*pool, new(T))
		fresh = true
	}
	is = (*pool)[*n]
	*n++
	return is, fresh
}

// Rank returns the world rank number.
func (r *Rank) Rank() int { return r.rank }

// Node returns the node index the rank is pinned to.
func (r *Rank) Node() int { return r.node }

// Core returns the core index within the node.
func (r *Rank) Core() int { return r.core }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

// Now reports virtual time.
func (r *Rank) Now() sim.Time { return r.world.eng.Now() }

// ComputeCost returns how long ref seconds of reference-core work starting
// now take on this rank's core, scaled by the node's speed and the
// cluster's noise/perturbation models. It schedules nothing: the caller
// schedules its completion event at (now+d, now).
func (r *Rank) ComputeCost(ref sim.Time) sim.Time {
	eng := r.world.eng
	return r.world.cfg.ExecTime(r.node, ref, eng.Now(), eng.Rand())
}
