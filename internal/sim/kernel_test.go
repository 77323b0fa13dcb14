package sim

import (
	"math/rand"
	"testing"
)

// TestSteadyStateSleepAllocatesNothing is the allocation regression gate for
// the kernel hot path: once an engine and its machines' step closures
// exist, scheduling a step must not allocate. The budget covers only fixed
// setup (engine, closures, queue growth), so it stays constant while the
// step count scales.
func TestSteadyStateSleepAllocatesNothing(t *testing.T) {
	const steps = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		e := NewEngine(1)
		for i := 0; i < 4; i++ {
			k := 0
			var step func()
			step = func() {
				if k++; k < steps/4 {
					e.After(Microsecond, step)
				}
			}
			e.Schedule(0, step)
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	// ~40 fixed allocations observed; anything growing with the step count
	// would show up as thousands.
	if allocs > 200 {
		t.Fatalf("steady-state run allocated %.0f times for %d steps; the scheduling path must be allocation-free", allocs, steps)
	}
}

// TestEqualTimestampFIFOAcrossEventKinds locks in the seq tie-break across
// the scheduling entry points (Schedule, After, and ScheduleAsOf at the
// current instant): events scheduled for the same (time, scheduling time)
// fire strictly in schedule order.
func TestEqualTimestampFIFOAcrossEventKinds(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }
	e.Schedule(2, func() {
		// All three at (t=2, born=2), interleaving the entry points.
		e.Schedule(2, rec("schedule"))
		e.ScheduleAsOf(2, 2, rec("asof"))
		e.After(0, rec("after"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"schedule", "asof", "after"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie-break order = %v, want %v", order, want)
		}
	}
}

// TestHeapStressOrdering drives the queue through thousands of interleaved
// pushes and pops with heavy timestamp collisions. Callbacks schedule with
// ScheduleAsOf, mostly at a born before now, and some far into the future,
// while the queue grows past arrayModeMax and drains below
// arrayModeLowWater three times, so the array insert, the heapify and the
// low-water re-sort all run. Every insert orders after the event that made
// it, so the recorded (t, born, seq) keys must fire strictly sorted, and
// every scheduled event must fire.
func TestHeapStressOrdering(t *testing.T) {
	e := NewEngine(99)
	rng := rand.New(rand.NewSource(99))
	type key struct {
		t, born Time
		seq     uint32
	}
	var fired []key
	scheduled := 0
	size := func() int {
		n := len(e.heap) - e.lo
		if e.nextSet {
			n++
		}
		return n
	}
	growing, cycles := true, 0
	wasArray, heapified, resorted := true, 0, 0
	var schedule func(at, born Time)
	schedule = func(at, born Time) {
		k := &key{t: max(at, e.now), born: born}
		scheduled++
		e.ScheduleAsOf(at, born, func() {
			fired = append(fired, *k)
			if e.arrayMode != wasArray {
				if wasArray {
					heapified++
				} else {
					resorted++
				}
				wasArray = e.arrayMode
			}
			switch n := size(); {
			case growing && n >= arrayModeMax+400:
				growing = false
			case !growing && n < arrayModeLowWater/2 && cycles < 2:
				growing, cycles = true, cycles+1
			}
			children := 0
			if growing {
				children = 2
			}
			now, cur := e.Now(), e.EventScheduledAt()
			for c := 0; c < children; c++ {
				switch d := Time(rng.Intn(5)); {
				case d == 0:
					// Same instant: born may not precede the current event's.
					schedule(now, cur+Time(rng.Intn(int(now-cur)+1)))
				case d == 4 && rng.Intn(8) == 0:
					schedule(now+200, now-Time(rng.Intn(int(now)+1)))
				default:
					schedule(now+d, now-Time(rng.Intn(int(now)+1)))
				}
			}
		})
		k.seq = e.seq
	}
	for i := 0; i < 300; i++ {
		schedule(Time(rng.Intn(50)), 0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if heapified < 3 || resorted < 3 {
		t.Fatalf("heapified %d, re-sorted %d times; want 3 each", heapified, resorted)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if !eventLess(&event{t: a.t, born: a.born, seq: a.seq}, &event{t: b.t, born: b.born, seq: b.seq}) {
			t.Fatalf("event %d fired %+v after %+v", i, b, a)
		}
	}
	if len(fired) != scheduled {
		t.Fatalf("fired %d events, want %d", len(fired), scheduled)
	}
}

// TestReentrantRunPanics pins the guard against driving an engine that is
// already running.
func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine(1)
	panicked := false
	e.Schedule(1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_ = e.Run() // re-entrant: must panic, not recurse
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("re-entrant Run did not panic")
	}
}
