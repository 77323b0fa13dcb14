package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Win is an RMA window: each rank of the creating communicator exposes a
// segment of int64 words. Operations name a target comm rank and an offset
// within the target's segment.
//
// Passive-target synchronization follows the lock-polling protocol the paper
// discusses (citing Zhao et al.): locking is acquire-by-retry, every attempt is
// an RMA round serviced serially by the target node's window port, and
// failed attempts back off for the cluster's PollInterval. Under contention
// the attempt storm both delays the holder's own operations and stretches
// grant hand-off — the mechanism behind the paper's SS results. Locks are
// exclusive (MPI_LOCK_EXCLUSIVE), one per node's port, as the paper's
// executor takes them: see rmaPort.
type Win struct {
	world  *World
	comm   *Comm
	name   string
	shared bool
	// mem is the single backing array behind every rank's segment; data[i]
	// is the i-th rank's count-word subslice of it. One allocation per
	// window, and World.Reset can recycle the arrays across pooled cells.
	mem  []int64
	data [][]int64

	// Accounting for overhead analysis.
	LockAttempts     int64
	LockAcquisitions int64
	AtomicOps        int64
}

// rmaPort is one node's window port: the serial RMA service station, the
// one exclusive lock it serves, and the virtual lock pollers that coalesce
// the lock-polling protocol's retry storm.
//
// In the literal protocol a contended MPI_Win_lock retries every
// PollInterval, and every retry is a full RMA round through this port — an
// O(hold-time/PollInterval) stream of simulated events per waiter that
// dominates host time in the SS experiments. The coalesced implementation
// keeps the *arithmetic* of every retry (each one still consumes port
// service time, delays other requests, and bumps the attempt counters —
// that feedback is the paper's SS pathology) but performs it lazily: the
// waiter registers a poller, and its pending retries are replayed in virtual-
// timestamp order whenever something observes the port (a real RMA arrival)
// or the lock state (an unlock, or the wake chain below). Timing, attempt
// counts and acquisition order are identical to the literal protocol
// except where a poll step ties another event's (time, scheduling-time)
// key exactly; only the host-event count changes. DESIGN.md §3 gives the
// equivalence argument and the tie rule.
//
// The paper's executor guards each node's local work queue with one
// exclusive lock, so a port serves exactly one lock (win, target): the
// first lock or unlock issuer built for the port this cell names it, and
// an issuer for a second lock on the same port panics (lockSite). Every
// parked poller therefore waits on the port's own lock word.
type rmaPort struct {
	srv sim.Server
	// Pending poll steps wait in two queues, each sorted by the key
	// (at, born, reg): the engine's (time, scheduling-time) event order,
	// with registration order as the deterministic tie-break — exactly the
	// order the literal selection scan preferred. checks holds the
	// in-service attempts, keyed by their check time; arrivals holds the
	// backed-off pollers, keyed by their next arrival. The earliest pending
	// step is the smaller of the two heads, an O(1) peek. The port serves
	// attempts in FIFO order, so check times grow in arrival order and
	// back-offs in check order: almost every move between the queues is an
	// append, and the rest insert in key order, which keeps the selection
	// order the single sorted order of all pending steps by construction.
	checks, arrivals stepQueue
	// parked counts the registered pollers; each has exactly one pending
	// step, in checks or in arrivals.
	parked int
	// reg is the monotone registration counter behind the tie-break
	// (32-bit with a wrap guard).
	reg uint32

	// win and target name the port's lock (nil until an issuer names it),
	// and held is its lock word.
	win    *Win
	target int
	held   bool
	// Wake-chain mark for coalesced polling: while the lock is free and a
	// poller is parked, (wakeAt, wakeBorn) is the earliest pending poll
	// decision and an engine event is scheduled at that position.
	wakeAt, wakeBorn sim.Time
	wakeSet          bool
}

// pollerKey is one pending poll step: its position and the poller that
// takes it. The position is a copy of the poller's own, so comparisons
// read the queue's contiguous memory; the registration tie-break is only
// loaded on an exact (at, born) tie.
type pollerKey struct {
	at   sim.Time
	born sim.Time
	pl   *poller
}

func keyLess(a, b *pollerKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.born != b.born {
		return a.born < b.born
	}
	return a.pl.reg < b.pl.reg
}

// stepQueue is an ascending run of poll-step keys: q[head:] is live, pops
// advance head, and pushes append or insert in key order. A push into a
// full backing array slides the live window down when at least half of it
// is dead instead of growing, so capacity stays within a small multiple of
// the largest live length.
type stepQueue struct {
	q    []pollerKey
	head int
}

// min returns the earliest key, or nil when the queue is empty.
func (s *stepQueue) min() *pollerKey {
	if s.head == len(s.q) {
		return nil
	}
	return &s.q[s.head]
}

// pop removes the earliest key.
func (s *stepQueue) pop() {
	s.head++
	if s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
}

// push inserts k in key order: an append when k orders after the tail,
// otherwise a bisection of the live window and a shift of the keys after
// k.
func (s *stepQueue) push(k pollerKey) {
	q, n := s.q, len(s.q)
	if n == cap(q) && 2*s.head >= n {
		n = copy(q, q[s.head:])
		q, s.head = q[:n], 0
	}
	if n == s.head || !keyLess(&k, &q[n-1]) {
		s.q = append(q, k)
		return
	}
	lo, hi := s.head, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyLess(&k, &q[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q = append(q, pollerKey{})
	copy(q[lo+1:], q[lo:n])
	q[lo] = k
	s.q = q
}

// reset empties the queue, keeping its capacity.
func (s *stepQueue) reset() { s.q, s.head = s.q[:0], 0 }

// reset clears a pooled port for reuse, lock included, keeping the queues'
// capacity.
func (pt *rmaPort) reset() {
	pt.checks.reset()
	pt.arrivals.reset()
	*pt = rmaPort{checks: pt.checks, arrivals: pt.arrivals}
}

// pending reports whether any poll step is registered.
func (pt *rmaPort) pending() bool { return pt.parked > 0 }

// next returns the earliest pending step and whether it is an in-service
// attempt's check (rather than a backed-off poller's arrival), or nil when
// no step is pending.
func (pt *rmaPort) next() (k *pollerKey, check bool) {
	c, a := pt.checks.min(), pt.arrivals.min()
	if c != nil && (a == nil || keyLess(c, a)) {
		return c, true
	}
	return a, false
}

// pushPoller registers a new waiter, whose next step is an arrival.
func (pt *rmaPort) pushPoller(pl *poller) {
	pt.reg++
	if pt.reg == 0 {
		panic("mpi: poller registration counter overflow")
	}
	pl.reg = pt.reg
	pt.parked++
	pt.arrivals.push(pollerKey{at: pl.at, born: pl.born, pl: pl})
}

// poller is one waiting lock caller (see NewLockCont) whose retries are
// simulated arithmetically. It alternates between two phases: the next
// attempt *arriving* at the port (queued in rmaPort.arrivals, at = arrival
// time) and the in-flight attempt *completing and checking* the lock word
// (queued in rmaPort.checks, at = check time).
type poller struct {
	// cont runs at the grant position, in an event with exactly the
	// (time, scheduling-time) key the literal winner's check would have had.
	cont func()

	at sim.Time
	// born is the virtual time the step pending at `at` would have been
	// scheduled in the literal protocol (the previous check for an arrival,
	// the arrival for a check). Events of equal firing time fire in
	// scheduling order, so born decides ties between a replayed step and a
	// real same-instant arrival.
	born sim.Time
	reg  uint32 // registration tie-break, assigned by pushPoller
}

// advancePort replays pending virtual poll steps on node's port in
// (timestamp, scheduling-time) order — the engine's own event order. Steps
// strictly before t always replay; steps exactly at t replay only if their
// would-be event was scheduled before bornLimit (or at it, when incl is
// set), because events of equal firing time fire in scheduling order.
// Callers replaying on behalf of a real port arrival or a lock release pass
// that event's EventScheduledAt exclusively; wake events pass their own
// position inclusively. The call must precede any real arrival at the port
// (so the serial service order matches the literal protocol) and any
// lock-state change (so every check resolves against the state that held
// at its own virtual time). Grants resolve exactly at their check time and
// position: the wake chain guarantees an engine event fires there, so
// eng.Now() == pl.at.
func (w *World) advancePort(node int, t, bornLimit sim.Time, incl bool) (advanced bool) {
	pt := w.memPort[node]
	mem := &w.cfg.Mem
	for {
		k, check := pt.next()
		if k == nil || k.at > t || (k.at == t && (k.born > bornLimit || (k.born == bornLimit && !incl))) {
			return
		}
		best := k.pl
		advanced = true
		if !check {
			// The retry reaches the port: consume serial service exactly as
			// the literal attempt would, then wait for the check moment.
			pt.arrivals.pop()
			done := pt.srv.ServeAsync(best.at, mem.LockAttempt)
			pt.win.LockAttempts++
			// Mirror the literal service wake-up bit for bit: the attempt
			// would have waited (done − at) from at, so its check is at
			// at + (done − at), which floating point does not guarantee to
			// equal done, in the position scheduled at the arrival.
			best.born = best.at
			best.at = best.at + (done - best.at)
			pt.checks.push(pollerKey{at: best.at, born: best.born, pl: best})
			continue
		}
		// The attempt completes: check the lock word at its own timestamp.
		pt.checks.pop()
		if !pt.held {
			pt.held = true
			pt.win.LockAcquisitions++
			pt.parked--
			// Resume the winner at its check time, in the position the
			// literal check event (scheduled at the attempt's arrival)
			// would have fired, so everything it schedules next gets the
			// same relative order as in the literal protocol.
			w.eng.ScheduleAsOf(best.at, best.born, best.cont)
			continue
		}
		// Failed: back off PollInterval and retry. The next arrival is the
		// back-off's wake-up, scheduled at the check.
		best.born = best.at
		best.at += mem.PollInterval
		pt.arrivals.push(pollerKey{at: best.at, born: best.born, pl: best})
	}
}

// reconcilePort re-establishes the wake-chain invariant after the port or
// its lock changed: while the lock is free and a poller is parked, an
// engine event is scheduled at the earliest pending poll decision, in that
// decision's own event position. Each parked poller has exactly one pending
// step, so that decision is the smaller of the two queue heads. A held
// lock arms nothing, and a mark already at or before the decision covers
// it; otherwise the mark moves there and one wake is armed. Stale wake
// events (the state changed again first) fire harmlessly: they just
// advance and reconcile again.
func (w *World) reconcilePort(node int) {
	pt := w.memPort[node]
	w.census.Reconciles++
	if pt.parked == 0 || pt.held {
		return
	}
	k, _ := pt.next()
	if pt.wakeSet && (pt.wakeAt < k.at || (pt.wakeAt == k.at && pt.wakeBorn <= k.born)) {
		return
	}
	pt.wakeAt, pt.wakeBorn, pt.wakeSet = k.at, k.born, true
	w.scheduleWake(node, k.at, k.born)
}

// wakeRec is one pooled wake-chain link; fire is the closure bound to it
// once, so re-arming the chain allocates nothing in steady state.
type wakeRec struct {
	w    *World
	node int
	at   sim.Time
	born sim.Time
	fire func()
	next *wakeRec
}

// scheduleWake arms one link of the wake chain: an event at the exact
// (time, scheduling-time) position of the poll decision it covers, firing
// after every same-instant event that preceded the literal decision and
// before every one that followed it.
func (w *World) scheduleWake(node int, at, born sim.Time) {
	w.census.WakesArmed++
	wr := w.wakeFree
	if wr == nil {
		wr = &wakeRec{w: w}
		wr.fire = func() {
			w := wr.w
			node, born := wr.node, wr.born
			pt := w.memPort[node]
			cleared := pt.wakeSet && pt.wakeAt == wr.at && pt.wakeBorn == born
			if cleared {
				pt.wakeSet = false
			}
			wr.next = w.wakeFree
			w.wakeFree = wr
			advanced := w.advancePort(node, w.eng.Now(), born, true)
			if cleared || advanced {
				w.reconcilePort(node)
			}
			// A stale link that replayed nothing cannot have created a new
			// earliest decision: poll positions only ever move later, every
			// release reconciles itself, and the covering mark is still
			// armed. The reconcile would arm nothing, so skip it.
		}
	} else {
		w.wakeFree = wr.next
	}
	wr.node, wr.at, wr.born = node, at, born
	w.eng.ScheduleAsOf(at, born, wr.fire)
}

// newWin builds the window object shared by a collective allocation. The
// per-rank segments subslice one backing array (and reuse a pooled window's
// backing memory when the world has one of the right shape), so window
// creation costs O(1) allocations rather than O(ranks).
func (c *Comm) newWin(name string, count int, shared bool) *Win {
	size := c.Size()
	w := c.world.pooledWin(size, count)
	if w == nil {
		w = &Win{mem: make([]int64, size*count), data: make([][]int64, size)}
	}
	w.world, w.comm, w.name, w.shared = c.world, c, name, shared
	for i := range w.data {
		w.data[i] = w.mem[i*count : (i+1)*count : (i+1)*count]
	}
	c.world.wins = append(c.world.wins, w)
	return w
}

// pooledWin returns a retired window whose backing arrays fit size ranks of
// count words each (see World.Reset), zeroed and ready for reuse, or nil.
func (w *World) pooledWin(size, count int) *Win {
	for i, pw := range w.winFree {
		if len(pw.data) == size && cap(pw.mem) >= size*count {
			w.winFree[i] = w.winFree[len(w.winFree)-1]
			w.winFree = w.winFree[:len(w.winFree)-1]
			pw.mem = pw.mem[:size*count]
			for j := range pw.mem {
				pw.mem[j] = 0
			}
			pw.LockAttempts, pw.LockAcquisitions, pw.AtomicOps = 0, 0, 0
			return pw
		}
	}
	return nil
}

// allocateWinCont collectively creates a window: cont receives it at the
// event position where a blocking caller resumed from the creation barrier.
func (c *Comm) allocateWinCont(r *Rank, name string, count int, shared bool, cont func(*Win)) {
	if shared && c.spansNodes() != 1 {
		panic(fmt.Sprintf("mpi: shared window on communicator %q spanning %d nodes", c.name, c.spansNodes()))
	}
	st := c.enter(r, "winalloc")
	if st.win == nil {
		st.win = c.newWin(name, count, shared)
	}
	c.arriveCont(st, c.latencyCost(2, 0), nil, cont)
}

// WinAllocateCont collectively creates a window with count int64 words per
// rank (MPI_Win_allocate); cont runs holding the new window at the
// post-creation-barrier event position.
func (c *Comm) WinAllocateCont(r *Rank, name string, count int, cont func(*Win)) {
	c.allocateWinCont(r, name, count, false, cont)
}

// WinAllocateSharedCont collectively creates an MPI-3 shared-memory window
// (MPI_Win_allocate_shared); the communicator must live on a single node
// (use SplitTypeShared).
func (c *Comm) WinAllocateSharedCont(r *Rank, name string, count int, cont func(*Win)) {
	c.allocateWinCont(r, name, count, true, cont)
}

// Name returns the window's debug name.
func (w *Win) Name() string { return w.name }

// Comm returns the communicator the window was created on.
func (w *Win) Comm() *Comm { return w.comm }

// targetNode returns the node hosting the target comm rank's segment.
func (w *Win) targetNode(target int) int {
	return w.world.ranks[w.comm.ranks[target]].node
}

// NewLockCont returns a reusable exclusive MPI_Win_lock issuer for a
// node-local window. Calling the issuer performs the literal first attempt's
// arrival (poll replay plus port service reservation) at the current instant
// and arranges for cont to run, holding the lock, in an event at the
// position of the literal check — where a blocking caller would have
// resumed. Under contention the retry loop runs through the coalesced poller
// machinery and cont fires at the exact grant position. The issuer is
// recycled from r (World.Reset) with its func bound once, so a warm rank
// allocates nothing here or per call.
func (w *Win) NewLockCont(r *Rank, target int, cont func()) func() {
	site := w.lockSite(r, target, "NewLockCont")
	is, fresh := nextIssuer(&r.locks, &r.nlock)
	if fresh {
		is.issue, is.checkFn = is.attempt, is.check
	}
	is.lockSite, is.cont = site, cont
	return is.issue
}

// lockSite is the port whose lock a lock or unlock issuer addresses, with
// the world, engine and memory model that serve it. Every New*Cont call
// refreshes it, so a recycled issuer never reaches an earlier cell's
// machine.
type lockSite struct {
	w   *World
	eng *sim.Engine
	pt  *rmaPort
	mem *cluster.MemParams
	tn  int // the target's node
}

// lockSite checks that r may lock w's target segment — windows are locked
// from the hosting node, and the hosting port serves one lock — and returns
// the site op addresses. The first issuer built for a port names its lock.
func (w *Win) lockSite(r *Rank, target int, op string) lockSite {
	tn := w.targetNode(target)
	if tn != r.node {
		panic(fmt.Sprintf("mpi: %s on %s[%d] from another node", op, w.name, target))
	}
	wld := w.world
	pt := wld.memPort[tn]
	if pt.win == nil {
		pt.win, pt.target = w, target
	} else if pt.win != w || pt.target != target {
		panic(fmt.Sprintf("mpi: %s on %s[%d]: node %d's port already serves the lock on %s[%d]",
			op, w.name, target, tn, pt.win.name, pt.target))
	}
	return lockSite{wld, wld.eng, pt, &wld.cfg.Mem, tn}
}

// lockIssuer is one NewLockCont issuer.
type lockIssuer struct {
	lockSite
	cont           func()
	issue, checkFn func()
	// pl is the issuer's parked attempt: an issuer has at most one lock
	// attempt outstanding, so the contended path allocates nothing.
	pl poller
}

// attempt is the literal first attempt: one RMA round through the port.
func (is *lockIssuer) attempt() {
	eng, pt := is.eng, is.pt
	pt.win.LockAttempts++
	if pt.pending() {
		is.w.advancePort(is.tn, eng.Now(), eng.EventScheduledAt(), false)
	}
	now := eng.Now()
	done := pt.srv.ServeAsync(now, is.mem.LockAttempt)
	chk := now + (done - now) // Serve's wake arithmetic, bit for bit
	eng.ScheduleAsOf(chk, now, is.checkFn)
}

// check is the first attempt's lock-word check.
func (is *lockIssuer) check() {
	pt := is.pt
	if !pt.held {
		pt.held = true
		pt.win.LockAcquisitions++
		is.cont()
		return
	}
	// Contended: park on the coalesced poller machinery, exactly as the
	// literal loop registered itself after its first failed check.
	born := is.eng.Now()
	is.pl = poller{cont: is.cont, at: born + is.mem.PollInterval, born: born}
	pt.pushPoller(&is.pl)
}

// NewUnlockCont returns a reusable MPI_Win_unlock issuer: issue(arrival,
// born) runs the unlock's arrival half (poll replay, port service) in an
// event at (arrival, born) — the caller's pre-arrival wake position, which
// lets a caller fold the last steps of its critical section into the
// issue — the release half at the service completion, and cont(release)
// inline right after the release, exactly where a blocking caller resumed,
// so everything cont schedules gets the same relative order. The release is
// itself an RMA round (it flushes pending operations), so it competes with
// poll attempts at the port. At most one unlock may be in flight per issuer.
// Like NewLockCont's, the issuer is recycled from r.
func (w *Win) NewUnlockCont(r *Rank, target int, cont func(release sim.Time)) func(arrival, born sim.Time) {
	site := w.lockSite(r, target, "NewUnlockCont")
	is, fresh := nextIssuer(&r.unlocks, &r.nunlock)
	if fresh {
		is.issue, is.arriveFn, is.releaseFn = is.schedule, is.arrive, is.release
	}
	is.lockSite, is.cont = site, cont
	return is.issue
}

// unlockIssuer is one NewUnlockCont issuer.
type unlockIssuer struct {
	lockSite
	cont                func(release sim.Time)
	arrival, releaseAt  sim.Time // the unlock in flight
	issue               func(arrival, born sim.Time)
	arriveFn, releaseFn func()
}

// schedule issues the unlock: its arrival half runs in an event at
// (arrival, born).
func (is *unlockIssuer) schedule(arrival, born sim.Time) {
	is.arrival = arrival
	is.eng.ScheduleAsOf(arrival, born, is.arriveFn)
}

// arrive is the unlock's RMA round reaching the port.
func (is *unlockIssuer) arrive() {
	if is.pt.pending() {
		is.w.advancePort(is.tn, is.arrival, is.eng.EventScheduledAt(), false)
	}
	done := is.pt.srv.ServeAsync(is.arrival, is.mem.SharedWinOp)
	is.releaseAt = is.arrival + (done - is.arrival)
	is.eng.ScheduleAsOf(is.releaseAt, is.arrival, is.releaseFn)
}

// release frees the lock at the service completion and resumes the caller.
func (is *unlockIssuer) release() {
	pt := is.pt
	if pt.pending() {
		is.w.advancePort(is.tn, is.releaseAt, is.eng.EventScheduledAt(), false)
	}
	if !pt.held {
		panic(fmt.Sprintf("mpi: Unlock of unheld lock on %s[%d]", pt.win.name, pt.target))
	}
	pt.held = false
	is.w.reconcilePort(is.tn)
	is.cont(is.releaseAt)
}

// NewFetchAndOpCont returns a reusable MPI_Fetch_and_op (MPI_SUM) issuer on
// w for requests from r's node: issue(target, offset, delta, cont) performs
// one RMA round — wire latency both ways when the target is remote, poll
// replay and serial service at the target port either way — in engine
// events at the exact (time, scheduling-time) positions a blocking caller's
// waits occupied, then atomically adds delta to the word and runs cont(old)
// inline at the completion event, where that caller resumed. With delta 0
// it is an atomic read (MPI_NO_OP). At most one operation may be in flight
// per issuer. Like NewLockCont's, the issuer is recycled from r, so a warm
// rank allocates nothing here or per issue.
func (w *Win) NewFetchAndOpCont(r *Rank) func(target, offset int, delta int64, cont func(old int64)) {
	is, fresh := nextIssuer(&r.fops, &r.nfop)
	if fresh {
		is.issue = is.start
		is.finishFn, is.servedRemoteFn, is.arriveRemoteFn = is.finish, is.servedRemote, is.arriveRemote
	}
	wld := w.world
	is.w, is.eng, is.cfg, is.win, is.node = wld, wld.eng, wld.cfg, w, r.node
	return is.issue
}

// fopIssuer is one NewFetchAndOpCont issuer, refreshed like lockIssuer.
type fopIssuer struct {
	w    *World
	eng  *sim.Engine
	cfg  *cluster.Config
	win  *Win
	node int // the requesting rank's node
	// The operation in flight.
	target, offset int
	delta          int64
	cont           func(int64)

	issue                                    func(target, offset int, delta int64, cont func(old int64))
	finishFn, servedRemoteFn, arriveRemoteFn func()
}

// start issues one operation: a node-local target is served at once, a
// remote one after the wire latency.
func (is *fopIssuer) start(target, offset int, delta int64, cont func(int64)) {
	is.target, is.offset, is.delta, is.cont = target, offset, delta, cont
	w := is.win
	w.AtomicOps++
	tn := w.targetNode(target)
	eng := is.eng
	now := eng.Now()
	if tn != is.node {
		eng.ScheduleAsOf(now+is.cfg.Net.Latency, now, is.arriveRemoteFn)
		return
	}
	pt := is.w.memPort[tn]
	if pt.pending() {
		is.w.advancePort(tn, now, eng.EventScheduledAt(), false)
	}
	done := pt.srv.ServeAsync(now, is.cfg.Mem.SharedWinOp)
	eng.ScheduleAsOf(now+(done-now), now, is.finishFn)
}

// arriveRemote is a remote operation reaching the target's port.
func (is *fopIssuer) arriveRemote() {
	tn := is.win.targetNode(is.target)
	pt := is.w.memPort[tn]
	eng := is.eng
	if pt.pending() {
		is.w.advancePort(tn, eng.Now(), eng.EventScheduledAt(), false)
	}
	now := eng.Now()
	done := pt.srv.ServeAsync(now, is.cfg.Mem.SharedWinOp+is.cfg.Net.PortService)
	eng.ScheduleAsOf(now+(done-now), now, is.servedRemoteFn)
}

// servedRemote sends a remote operation's reply back over the wire.
func (is *fopIssuer) servedRemote() {
	now := is.eng.Now()
	is.eng.ScheduleAsOf(now+is.cfg.Net.Latency, now, is.finishFn)
}

// finish applies the operation and resumes the caller with the old value.
func (is *fopIssuer) finish() {
	seg := is.win.data[is.target]
	old := seg[is.offset]
	seg[is.offset] = old + is.delta
	is.cont(old)
}

// Shared returns the target segment of a shared window for direct
// load/store access, validating locality once. The visibility discipline (a
// lock held across the accesses, or a synchronizing collective) remains the
// caller's responsibility, as in MPI-3.
func (w *Win) Shared(r *Rank, target int) []int64 {
	w.checkShared(r, target)
	return w.data[target]
}

func (w *Win) checkShared(r *Rank, target int) {
	if !w.shared {
		panic(fmt.Sprintf("mpi: direct access to non-shared window %s", w.name))
	}
	if w.targetNode(target) != r.node {
		panic(fmt.Sprintf("mpi: direct access to %s[%d] from another node", w.name, target))
	}
}
