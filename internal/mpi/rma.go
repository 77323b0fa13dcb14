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
// grant hand-off — the mechanism behind the paper's SS results.
type Win struct {
	world  *World
	comm   *Comm
	name   string
	shared bool
	// mem is the single backing array behind every rank's segment; data[i]
	// is the i-th rank's count-word subslice of it. One allocation per
	// window, and World.Reset can recycle the arrays across pooled cells.
	mem   []int64
	data  [][]int64
	locks []lockState

	// Accounting for overhead analysis.
	LockAttempts     int64
	LockAcquisitions int64
	AtomicOps        int64
}

type lockState struct {
	excl    bool
	readers int

	// Wake-chain bookkeeping for coalesced polling: when the lock is in a
	// state some parked poller could acquire, (wakeAt, wakeBorn) is the
	// earliest pending poll decision and an engine event is scheduled at
	// that position. See rmaPort.
	wakeAt   sim.Time
	wakeBorn sim.Time
	wakeSet  bool
}

// rmaPort is one node's window port: the serial RMA service station plus the
// virtual lock-poller list that coalesces the lock-polling protocol's retry
// storm.
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
	// byReg holds the same pollers in registration order: reconcilePort must
	// walk them exactly as the literal slice scan did, because the order in
	// which wake-chain positions are armed is part of the frozen event
	// sequence.
	byReg []*poller
	// hom is true while every registered poller targets one (win, target)
	// pair — the common shape (a node's ranks all contend for the one local
	// queue lock) — letting reconcilePort skip the whole walk with a single
	// lock-word check when that lock is exclusively held.
	hom bool
	// reg is the monotone registration counter behind the tie-break
	// (32-bit with a wrap guard).
	reg uint32
	// armW/armT are reconcilePort's arm-once scratch: the locks whose
	// covering mark improved during the current walk, deduplicated.
	armW []*Win
	armT []int
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

// reset clears a pooled port for reuse, keeping slice capacity.
func (pt *rmaPort) reset() {
	pt.srv = sim.Server{}
	pt.checks.reset()
	pt.arrivals.reset()
	for i := range pt.byReg {
		pt.byReg[i] = nil
	}
	pt.byReg = pt.byReg[:0]
	pt.reg = 0
	for i := range pt.armW {
		pt.armW[i] = nil
	}
	pt.armW = pt.armW[:0]
	pt.armT = pt.armT[:0]
}

// pending reports whether any poll step is registered.
func (pt *rmaPort) pending() bool { return len(pt.byReg) > 0 }

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
	if len(pt.byReg) == 0 {
		pt.hom = true
	} else if pt.hom && (pl.win != pt.byReg[0].win || pl.target != pt.byReg[0].target) {
		pt.hom = false
	}
	pt.byReg = append(pt.byReg, pl)
	pt.arrivals.push(pollerKey{at: pl.at, born: pl.born, pl: pl})
}

// unregister drops a granted poller, already popped from its queue, from
// the registration order.
func (pt *rmaPort) unregister(pl *poller) {
	for i, q := range pt.byReg {
		if q == pl {
			pt.byReg = append(pt.byReg[:i], pt.byReg[i+1:]...)
			return
		}
	}
}

// poller is one waiting lock caller (see NewLockCont) whose retries are
// simulated arithmetically. It alternates between two phases: the next
// attempt *arriving* at the port (queued in rmaPort.arrivals, at = arrival
// time) and the in-flight attempt *completing and checking* the lock word
// (queued in rmaPort.checks, at = check time).
type poller struct {
	win      *Win
	target   int
	lockType int
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

// canSucceed reports whether the poller's next check would acquire the lock
// in state ls.
func (pl *poller) canSucceed(ls *lockState) bool {
	if pl.lockType == LockExclusive {
		return !ls.excl && ls.readers == 0
	}
	return !ls.excl
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
			best.win.LockAttempts++
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
		ls := &best.win.locks[best.target]
		if best.canSucceed(ls) {
			if best.lockType == LockExclusive {
				ls.excl = true
			} else {
				ls.readers++
			}
			best.win.LockAcquisitions++
			pt.unregister(best)
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

// reconcilePort re-establishes the wake-chain invariant after the port or a
// lock hosted on it changed: for every lock with a parked poller that could
// acquire it in the current state, an engine event is scheduled at the
// earliest such poll decision, in that decision's own event position. Stale
// wake events (the state changed again first) fire harmlessly: they just
// advance and reconcile again.
func (w *World) reconcilePort(node int) {
	pt := w.memPort[node]
	// Fast path: when every parked poller contends for the same lock and
	// that lock is exclusively held, no poller can acquire it — the walk
	// below would arm nothing. One lock-word load replaces the scan.
	if pt.hom && len(pt.byReg) > 0 && pt.byReg[0].win.locks[pt.byReg[0].target].excl {
		return
	}
	// Walk in registration order — the literal scan order — improving each
	// lock's covering mark, then arm one wake per improved lock at its final
	// mark, where a grant can actually resolve. The intermediate, superseded
	// marks get no event. Such an event would fire later as a stale link and
	// replay the port up to its own position, and where that position ties
	// a real port event's (time, scheduling-time) key exactly, the extra
	// trigger decides which of the two the port serves first. The arming
	// rule is therefore part of the frozen event sequence (DESIGN.md §3).
	for _, pl := range pt.byReg {
		ls := &pl.win.locks[pl.target]
		if !pl.canSucceed(ls) {
			continue
		}
		if ls.wakeSet && (ls.wakeAt < pl.at || (ls.wakeAt == pl.at && ls.wakeBorn <= pl.born)) {
			continue
		}
		ls.wakeAt = pl.at
		ls.wakeBorn = pl.born
		ls.wakeSet = true
		found := false
		for i := range pt.armW {
			if pt.armW[i] == pl.win && pt.armT[i] == pl.target {
				found = true
				break
			}
		}
		if !found {
			pt.armW = append(pt.armW, pl.win)
			pt.armT = append(pt.armT, pl.target)
		}
	}
	for i := range pt.armW {
		win, target := pt.armW[i], pt.armT[i]
		pt.armW[i] = nil
		ls := &win.locks[target]
		w.scheduleWake(node, win, target, ls.wakeAt, ls.wakeBorn)
	}
	pt.armW = pt.armW[:0]
	pt.armT = pt.armT[:0]
}

// wakeRec is one pooled wake-chain link; fire is the closure bound to it
// once, so re-arming the chain allocates nothing in steady state.
type wakeRec struct {
	w      *World
	win    *Win
	target int
	node   int
	at     sim.Time
	born   sim.Time
	fire   func()
	next   *wakeRec
}

// scheduleWake arms one link of the wake chain: an event at the exact
// (time, scheduling-time) position of the poll decision it covers, firing
// after every same-instant event that preceded the literal decision and
// before every one that followed it.
func (w *World) scheduleWake(node int, win *Win, target int, at, born sim.Time) {
	wr := w.wakeFree
	if wr == nil {
		wr = &wakeRec{w: w}
		wr.fire = func() {
			w := wr.w
			ls := &wr.win.locks[wr.target]
			cleared := ls.wakeSet && ls.wakeAt == wr.at && ls.wakeBorn == wr.born
			if cleared {
				ls.wakeSet = false
			}
			node, born := wr.node, wr.born
			wr.win = nil
			wr.next = w.wakeFree
			w.wakeFree = wr
			advanced := w.advancePort(node, w.eng.Now(), born, true)
			if cleared || advanced {
				w.reconcilePort(node)
			}
			// A stale link that replayed nothing cannot have created a new
			// earliest decision: poll positions only ever move later, every
			// eligibility-increasing mutation (a release) reconciles itself,
			// and the covering mark is still armed. The walk would arm
			// nothing, so skip it.
		}
	} else {
		w.wakeFree = wr.next
	}
	wr.win, wr.target, wr.node, wr.at, wr.born = win, target, node, at, born
	w.eng.ScheduleAsOf(at, born, wr.fire)
}

// Lock types, mirroring MPI_LOCK_EXCLUSIVE / MPI_LOCK_SHARED.
const (
	LockExclusive = iota
	LockShared
)

// newWin builds the window object shared by a collective allocation. The
// per-rank segments subslice one backing array (and reuse a pooled window's
// backing memory when the world has one of the right shape), so window
// creation costs O(1) allocations rather than O(ranks).
func (c *Comm) newWin(name string, count int, shared bool) *Win {
	size := c.Size()
	w := c.world.pooledWin(size, count)
	if w == nil {
		w = &Win{mem: make([]int64, size*count), data: make([][]int64, size), locks: make([]lockState, size)}
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
			pw.locks = pw.locks[:size]
			for j := range pw.locks {
				pw.locks[j] = lockState{}
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

// NewLockCont returns a reusable MPI_Win_lock issuer for a node-local
// window. Calling the issuer performs the literal first attempt's arrival
// (poll replay plus port service reservation) at the current instant and
// arranges for cont to run, holding the lock, in an event at the position of
// the literal check — where a blocking caller would have resumed. Under
// contention the retry loop runs through the coalesced poller machinery and
// cont fires at the exact grant position. The issuer is recycled from r
// (World.Reset) with its func bound once, so a warm rank allocates nothing
// here or per issue.
func (w *Win) NewLockCont(r *Rank, target, lockType int, cont func()) func() {
	site := w.lockSite(r, target, lockType, "NewLockCont")
	is, fresh := nextIssuer(&r.locks, &r.nlock)
	if fresh {
		is.issue, is.checkFn = is.attempt, is.check
	}
	is.lockSite, is.cont = site, cont
	return is.issue
}

// lockSite is the lock a lock or unlock issuer addresses, with the world,
// engine, port and memory model that serve it. Every New*Cont call
// refreshes it, so a recycled issuer never reaches an earlier cell's
// machine.
type lockSite struct {
	w        *World
	eng      *sim.Engine
	pt       *rmaPort
	mem      *cluster.MemParams
	win      *Win
	tn       int // the target's node
	target   int
	lockType int
}

// lockSite checks that r may lock w's target segment — windows are locked
// from the hosting node — and returns the site op addresses.
func (w *Win) lockSite(r *Rank, target, lockType int, op string) lockSite {
	tn := w.targetNode(target)
	if tn != r.node {
		panic(fmt.Sprintf("mpi: %s on %s[%d] from another node", op, w.name, target))
	}
	wld := w.world
	return lockSite{wld, wld.eng, wld.memPort[tn], &wld.cfg.Mem, w, tn, target, lockType}
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
	is.win.LockAttempts++
	eng, pt := is.eng, is.pt
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
	w := is.win
	ls := &w.locks[is.target]
	if is.lockType == LockExclusive {
		if !ls.excl && ls.readers == 0 {
			ls.excl = true
			w.LockAcquisitions++
			is.cont()
			return
		}
	} else if !ls.excl {
		ls.readers++
		w.LockAcquisitions++
		is.cont()
		return
	}
	// Contended: park on the coalesced poller machinery, exactly as the
	// literal loop registered itself after its first failed check.
	born := is.eng.Now()
	is.pl = poller{
		win: w, target: is.target, lockType: is.lockType, cont: is.cont,
		at: born + is.mem.PollInterval, born: born,
	}
	is.pt.pushPoller(&is.pl)
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
func (w *Win) NewUnlockCont(r *Rank, target, lockType int, cont func(release sim.Time)) func(arrival, born sim.Time) {
	site := w.lockSite(r, target, lockType, "NewUnlockCont")
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
	if is.pt.pending() {
		is.w.advancePort(is.tn, is.releaseAt, is.eng.EventScheduledAt(), false)
	}
	w := is.win
	ls := &w.locks[is.target]
	if is.lockType == LockExclusive {
		if !ls.excl {
			panic(fmt.Sprintf("mpi: exclusive Unlock of unheld lock on %s[%d]", w.name, is.target))
		}
		ls.excl = false
	} else {
		if ls.readers <= 0 {
			panic(fmt.Sprintf("mpi: shared Unlock of unheld lock on %s[%d]", w.name, is.target))
		}
		ls.readers--
	}
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
