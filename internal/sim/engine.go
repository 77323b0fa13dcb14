// Package sim implements a deterministic, callback-driven discrete-event
// simulation kernel. Simulated activity is a set of continuation machines:
// every step is an event callback that runs to completion and schedules the
// machine's next step at an absolute virtual time. There are no goroutines,
// channels or blocking calls — Run is a plain pop-and-call loop on the
// caller's goroutine.
//
// The kernel guarantees determinism: with the same program and seed, every
// run produces the same event order and the same virtual timestamps. This is
// the substrate on which the MPI and OpenMP runtime models are built.
//
// The hot path is engineered for throughput (see DESIGN.md §2): the event
// queue is a value-typed min-queue of pointer-free entries (a sorted gap
// buffer that spills into a 4-ary heap), payloads live in a recycled slot
// table, and AbsorbAsOf runs an event inline when it is provably the next one
// to fire.
package sim

import (
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
)

// ErrInterrupted reports that a run was aborted by an external interrupt
// flag (SetInterrupt) before the event queue drained. Events may remain
// queued afterwards, so an interrupted engine must be abandoned, never
// Reset.
var ErrInterrupted = errors.New("sim: run interrupted")

// Time is virtual time in seconds.
type Time float64

// Common durations, for readability at call sites.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

// event is a scheduled occurrence. born records the virtual time the event
// was scheduled; events fire in (time, born, seq) order. Because scheduling
// always happens at the current instant, seq order refines born order and
// the ordering is exactly "equal-time events fire in schedule order" — the
// property that makes runs reproducible. Carrying born explicitly lets
// runtime models that replay coalesced activity late (see ScheduleAsOf)
// re-insert events at the position they would have occupied.
type event struct {
	t    Time
	born Time
	// seq is 32-bit on purpose: it only breaks ties between events of equal
	// (t, born), so its absolute value never matters, and the 24-byte entry
	// (vs 32 with a uint64) cuts the memmove volume of the sorted-array
	// queue layout by a quarter. nextSeq guards against wrap-around.
	seq uint32
	// pay indexes the engine's callback table. Keeping the heap entries
	// pointer-free makes every shift a barrier-less 24-byte copy, which is
	// most of what push/pop cost on deep queues.
	pay int32
}

// eventLess orders events by (time, scheduling time, schedule sequence).
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.born != b.born {
		return a.born < b.born
	}
	return a.seq < b.seq
}

// Engine owns the virtual clock and the event queue. All simulated activity
// runs on the Run caller's goroutine, one callback at a time, so simulated
// machines may freely share Go memory without host-level synchronization.
type Engine struct {
	now Time
	seq uint32
	// pushes counts queue insertions (see PushStamp).
	pushes uint32
	// heap holds the queued events in one of two layouts: while at most
	// arrayModeMax entries (arrayMode), a descending-sorted gap buffer —
	// the live window is heap[lo:], pops take the last element with zero
	// comparisons, and inserts binary-search the window and shift whichever
	// side is shorter (the slack below lo makes a far-future insert, which
	// lands at the front, an O(shift of the few events beyond it) move
	// instead of a whole-array memmove). This beats heap sifting at the
	// queue sizes cells actually reach — one pending event per simulated
	// rank or thread, so hundreds of entries on 16-node machines. If the queue
	// grows past arrayModeMax it is heapified (4-ary min-heap over heap[0:])
	// and converts back once it drains to arrayModeLowWater. Pop order is
	// the total order (t, born, seq) either way.
	heap      []event
	lo        int // array mode: first live entry of the gap buffer
	arrayMode bool
	// nextEv, when nextSet, is the queue's minimum, buffered outside the
	// heap (see push).
	nextEv  event
	nextSet bool
	// pays holds event callbacks, indexed by event.pay; free is the slot
	// free-list.
	pays []func()
	free []int32

	rng     *rand.Rand
	running bool

	// curBorn is the scheduling time of the event currently being executed
	// (see EventScheduledAt).
	curBorn Time

	// absorbDepth is the current nesting depth of inline event absorption
	// (see AbsorbAsOf); absorbOff suppresses absorption entirely (literal
	// A/B runs).
	absorbDepth int
	absorbOff   bool

	// interrupt, when non-nil, is polled every interruptStride events; once
	// it reads true the run aborts with ErrInterrupted. The flag is owned by
	// the caller (typically set from another goroutine on request
	// cancellation) and is the only cross-goroutine communication the engine
	// ever performs; non-interrupted runs are unaffected because the flag is
	// only read, never written, on the simulation path.
	interrupt *atomic.Bool
	intCount  int
}

// interruptStride is how many events fire between interrupt-flag polls: rare
// enough that the atomic load vanishes from profiles, frequent enough that a
// canceled cell stops within microseconds of wall-clock work.
const interruptStride = 512

// SetInterrupt installs (or, with nil, removes) the run's interrupt flag.
// It must be called while the engine is idle, before Run.
func (e *Engine) SetInterrupt(flag *atomic.Bool) {
	e.interrupt = flag
	e.intCount = 0
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:       rand.New(rand.NewSource(seed)),
		arrayMode: true,
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// nextSeq returns the next event sequence number. seq is 32-bit (see event);
// a single run issuing more than 4.29 billion events would wrap it and
// corrupt same-instant tie-breaks, so wrap-around panics instead.
func (e *Engine) nextSeq() uint32 {
	e.seq++
	if e.seq == 0 {
		panic("sim: event sequence counter overflow")
	}
	return e.seq
}

// PushStamp reports how many events have been inserted into e's queue since
// it was created or Reset — the deterministic per-cell event census.
func (e *Engine) PushStamp() uint32 { return e.pushes }

// Rand exposes the engine's deterministic random source. It must only be
// used from event callbacks.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc stores a callback and returns its slot index.
func (e *Engine) alloc(fn func()) int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.pays[i] = fn
		return i
	}
	e.pays = append(e.pays, fn)
	return int32(len(e.pays) - 1)
}

// push inserts an event into the queue. The single-slot front buffer
// (nextEv) catches the dominant pattern — an event scheduled to fire before
// everything already queued, usually a continuation at or just after the
// current instant — and makes its round-trip O(1): no sift on push, no sift
// on pop. Ordering is decided by the same (t, born, seq) comparator either
// way, so the firing sequence is untouched.
func (e *Engine) push(ev event) {
	e.pushes++
	if e.nextSet {
		if eventLess(&ev, &e.nextEv) {
			e.pushHeap(e.nextEv)
			e.nextEv = ev
			return
		}
		e.pushHeap(ev)
		return
	}
	if len(e.heap) == e.lo || eventLess(&ev, e.peekMin()) {
		e.nextEv = ev
		e.nextSet = true
		return
	}
	e.pushHeap(ev)
}

// arrayModeMax bounds the sorted-array layout; beyond it inserts would
// memmove too much and the queue switches to the heap layout. The bound is
// sized for large-P sweeps: a P-rank cell keeps roughly one pending event
// per rank, so 16 nodes × 16 ranks (plus wake-chain marks) still fits the
// array layout, where pops are free and inserts are short tail memmoves.
// Genuinely huge queues (the opt-in 64-node stress cells and beyond) spill
// into the heap, whose O(log n) costs are the safe asymptotic fallback.
const arrayModeMax = 128

// arrayModeLowWater is the size at which a heap-mode queue converts back to
// the sorted-array layout (see pop): once a queue that spiked past
// arrayModeMax has drained this far, array-mode pops win again and the
// one-off re-sort is cheap.
const arrayModeLowWater = 16

// peekMin returns the earliest queued event (the queue must be non-empty;
// the front buffer is checked by callers).
func (e *Engine) peekMin() *event {
	if e.arrayMode {
		return &e.heap[len(e.heap)-1]
	}
	return &e.heap[0]
}

// heapify converts the descending-sorted gap buffer into a 4-ary min-heap:
// the window is compacted to the front and reversed (an ascending array
// satisfies the heap invariant).
func (e *Engine) heapify() {
	h := e.heap
	if e.lo > 0 {
		n := copy(h, h[e.lo:])
		h = h[:n]
		e.lo = 0
	}
	for i, j := 0, len(h)-1; i < j; i, j = i+1, j-1 {
		h[i], h[j] = h[j], h[i]
	}
	e.heap = h
	e.arrayMode = false
}

// pending reports whether any event is queued.
func (e *Engine) pending() bool { return e.nextSet || len(e.heap) > e.lo }

// frontGap opens slack below the live window so front-side inserts can
// shift left instead of moving the whole array; the gap is a quarter of the
// window, which amortizes the slide.
func (e *Engine) frontGap() {
	n := len(e.heap)
	g := n/4 + 8
	if cap(e.heap) >= n+g {
		h := e.heap[:n+g]
		copy(h[g:], h[:n])
		e.heap = h
	} else {
		h := make([]event, n+g, 2*(n+g))
		copy(h[g:], e.heap)
		e.heap = h
	}
	e.lo = g
}

// pushHeap inserts an event into the queue's current layout.
func (e *Engine) pushHeap(ev event) {
	if e.arrayMode {
		if len(e.heap)-e.lo < arrayModeMax {
			h := e.heap
			lo, hi := e.lo, len(h)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if eventLess(&h[mid], &ev) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			// Insert before index lo, shifting whichever side is shorter:
			// soon events shift the tail, far-future events shift the few
			// entries ahead of them into the front gap.
			n := len(h)
			if lo-e.lo < n-lo {
				if e.lo == 0 {
					e.frontGap()
					h = e.heap
					lo += e.lo
				}
				copy(h[e.lo-1:], h[e.lo:lo])
				h[lo-1] = ev
				e.lo--
				return
			}
			h = append(h, event{})
			copy(h[lo+1:], h[lo:])
			h[lo] = ev
			e.heap = h
			return
		}
		e.heapify()
	}
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	if e.nextSet {
		e.nextSet = false
		return e.nextEv
	}
	if e.arrayMode {
		h := e.heap
		n := len(h) - 1
		top := h[n]
		if n == e.lo {
			n, e.lo = 0, 0 // drained: close the front gap
		}
		e.heap = h[:n]
		return top
	}
	h := e.heap
	top := h[0]
	n := len(h) - 1
	if n == 0 {
		e.arrayMode = true // drained: return to the cheap layout
	}
	last := h[n]
	h = h[:n]
	e.heap = h
	if n > 0 && n <= arrayModeLowWater {
		// A queue that spiked past arrayModeMax has drained back down:
		// re-sort the remainder into the descending array layout. The pop
		// order is the same total (t, born, seq) order in either layout.
		h[0] = last
		sort.Slice(h, func(i, j int) bool { return eventLess(&h[j], &h[i]) })
		e.arrayMode = true
		return top
	}
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			m := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventLess(&h[c], &h[m]) {
					m = c
				}
			}
			if !eventLess(&h[m], &last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// Schedule arranges for fn to run at absolute virtual time t. Times in the
// past are clamped to now.
func (e *Engine) Schedule(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(event{t: t, seq: e.nextSeq(), born: e.now, pay: e.alloc(fn)})
}

// ScheduleAsOf arranges for fn to run at absolute virtual time t in the
// firing position of an event that had been scheduled at virtual time born:
// among events with equal firing time, it precedes those scheduled after
// born and follows those scheduled before. Runtime models that coalesce
// fine-grained activity and replay it lazily use this to fire a replayed
// occurrence exactly where its literal counterpart would have fired.
func (e *Engine) ScheduleAsOf(t, born Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(event{t: t, seq: e.nextSeq(), born: born, pay: e.alloc(fn)})
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// absorbDepthMax bounds the nesting depth of inline absorption. Each
// absorbed event runs in the host stack frame of the event that scheduled
// it, so an unbounded contention-free chain would recurse without limit;
// past the bound AbsorbAsOf falls back to the queue, the whole absorbed
// stack unwinds (every absorption site is in tail position), and the chain
// resumes from Run's loop. The bound also caps how many events can
// fire between interrupt-flag polls inside one absorbed chain.
const absorbDepthMax = 64

// headAfter reports whether every queued event fires strictly after a
// hypothetical event scheduled now at (t, born): the queue's minimum —
// which, being already queued, carries an earlier sequence number and so
// wins any full-key tie — orders after (t, born) in (time, scheduling-time)
// order.
func (e *Engine) headAfter(t, born Time) bool {
	var h *event
	if e.nextSet {
		h = &e.nextEv
	} else if len(e.heap) > e.lo {
		h = e.peekMin()
	} else {
		return true
	}
	return h.t > t || (h.t == t && h.born > born)
}

// AbsorbAsOf behaves exactly like ScheduleAsOf — fn fires at time t in the
// position of an event scheduled at born — but when that event would be the
// engine's very next (every queued event orders strictly after it), fn runs
// inline instead of taking a queue round-trip. The skipped push/pop pair is
// the one Run would have performed immediately anyway: the clock and
// EventScheduledAt are set exactly as Run would have set them, and no
// other event can interleave, so the simulated event order — and with it
// every timestamp, RNG draw and trace record — is byte-identical to the
// scheduled execution. Sequence numbers refine scheduling order only
// relatively, so the absorbed event not drawing one cannot reorder anything.
//
// Caller contract: the call must be in tail position of the current event —
// nothing with observable effect may run after AbsorbAsOf returns — because
// fn (and transitively the chain it absorbs) executes before the caller's
// remaining statements. Callers firing several deferred continuations in a
// row must suppress absorption for all but the last (see WithoutAbsorb).
func (e *Engine) AbsorbAsOf(t, born Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	if e.absorbOff || e.absorbDepth >= absorbDepthMax || !e.headAfter(t, born) {
		e.push(event{t: t, seq: e.nextSeq(), born: born, pay: e.alloc(fn)})
		return
	}
	if e.interrupt != nil {
		if e.intCount++; e.intCount >= interruptStride {
			e.intCount = 0
			if e.interrupt.Load() {
				// Unwind through the queue; Run will see the flag.
				e.push(event{t: t, seq: e.nextSeq(), born: born, pay: e.alloc(fn)})
				return
			}
		}
	}
	if t > e.now {
		e.now = t
	}
	e.curBorn = born
	e.absorbDepth++
	fn()
	e.absorbDepth--
}

// WithoutAbsorb runs f with inline absorption suppressed: every AbsorbAsOf
// call inside f degrades to ScheduleAsOf. Callers that fire several
// collected same-key continuations in a row use it for all but the last —
// only the last is in tail position, and the earlier ones must leave their
// follow-up events queued so the ordering against the remaining
// continuations is decided by the comparator, not by call order.
func (e *Engine) WithoutAbsorb(f func()) {
	if e.absorbOff {
		f()
		return
	}
	e.absorbOff = true
	f()
	e.absorbOff = false
}

// SetAbsorb enables or disables inline absorption. Disabling forces every
// AbsorbAsOf through the queue; the literal A/B runs of the fast-forward
// differential tests use it.
func (e *Engine) SetAbsorb(on bool) { e.absorbOff = !on }

// EventScheduledAt reports the virtual time at which the currently
// executing event was scheduled. Together with the (time, seq) firing order
// it lets runtime models reconstruct how a hypothetical event scheduled at
// a known instant would have interleaved with the current one: events of
// equal firing time fire in scheduling order, and scheduling order follows
// scheduling time.
func (e *Engine) EventScheduledAt() Time { return e.curBorn }

// Run drives the simulation until the event queue drains: it pops the
// earliest event, advances the clock to it and calls its callback, and
// repeats. It returns ErrInterrupted if the interrupt flag stopped the run,
// nil otherwise. Run must not be called from inside one of its own
// callbacks.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Engine.Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.pending() {
		if e.interrupt != nil {
			if e.intCount++; e.intCount >= interruptStride {
				e.intCount = 0
				if e.interrupt.Load() {
					return ErrInterrupted
				}
			}
		}
		ev := e.pop()
		fn := e.pays[ev.pay]
		e.pays[ev.pay] = nil
		e.free = append(e.free, ev.pay)
		if ev.t > e.now {
			e.now = ev.t
		}
		e.curBorn = ev.born
		fn()
	}
	return nil
}

// Reset reinitializes a drained engine in place so it can run another
// simulation: the clock returns to zero, the random source is reseeded, and
// the event queue and callback table empty while keeping their backing
// capacity. The result is observationally identical to
// NewEngine(seed) — same clock, same RNG stream, same (t, born, seq) event
// ordering — which is what lets sweep drivers pool engines across cells
// (DESIGN.md §8). Reset panics if the previous run left queued events: such
// an engine still owns pending work and must be abandoned instead of reused.
func (e *Engine) Reset(seed int64) {
	if e.running || e.pending() {
		panic("sim: Engine.Reset on a running engine or one with pending events")
	}
	e.now = 0
	e.seq = 0
	e.pushes = 0
	e.curBorn = 0
	e.absorbDepth = 0
	e.absorbOff = false
	e.heap = e.heap[:0]
	e.lo = 0
	e.arrayMode = true
	e.nextSet = false
	e.pays = e.pays[:0]
	e.free = e.free[:0]
	e.rng.Seed(seed)
	e.interrupt = nil
	e.intCount = 0
}
