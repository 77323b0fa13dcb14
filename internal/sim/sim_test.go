package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// chain starts a continuation machine at time zero that waits each of
// durs in turn, calling step after every wait and done at the end.
func chain(e *Engine, durs []Time, step func(), done func()) {
	i := 0
	var next func()
	next = func() {
		if i > 0 && step != nil {
			step()
		}
		if i == len(durs) {
			if done != nil {
				done()
			}
			return
		}
		d := durs[i]
		i++
		e.After(d, next)
	}
	e.Schedule(0, next)
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestScheduleTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10, func() {
		e.Schedule(3, func() { // in the past; must fire at t=10
			if e.Now() != 10 {
				t.Errorf("past event fired at %v, want 10", e.Now())
			}
			fired = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
}

// TestProcSleepAdvancesTime checks that a machine's timed continuations
// land exactly at now+d.
func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Schedule(0, func() { at = append(at, e.Now()) })
	chain(e, []Time{1.5, 0.25}, func() { at = append(at, e.Now()) }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 1.5, 1.75}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("times = %v, want %v", at, want)
		}
	}
}

// TestProcsInterleaveDeterministically runs four machines with different
// periods and demands an identical interleaving on every run.
func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Time(i+1) * 0.1
			chain(e, []Time{d, d, d}, func() {
				log = append(log, fmt.Sprintf("%s@%.2f", name, float64(e.Now())))
			}, nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("log lengths %d, %d; want 12", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestSpawnFromProc checks that a running machine can start another one:
// the child starts at its parent's instant, not at time zero.
func TestSpawnFromProc(t *testing.T) {
	e := NewEngine(1)
	var childAt Time
	e.Schedule(0, func() {
		e.After(3, func() {
			chain(e, []Time{1}, nil, func() { childAt = e.Now() })
			e.After(10, func() {})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 4 {
		t.Fatalf("child finished at %v, want 4", childAt)
	}
	if e.Now() != 13 {
		t.Fatalf("parent finished at %v, want 13", e.Now())
	}
}

// TestZeroAndNegativeSleepYields checks that a zero or negative wait still
// goes through the queue: every event already due at the instant fires
// first.
func TestZeroAndNegativeSleepYields(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(0, func() {
		order = append(order, "a1")
		e.After(0, func() { order = append(order, "a2") })
	})
	e.Schedule(0, func() {
		order = append(order, "b1")
		e.After(-5, func() { order = append(order, "b2") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleAsOfOrder pins replay positioning: among events of equal
// firing time, one scheduled "as of" an earlier instant fires before events
// scheduled later, and after those scheduled earlier still.
func TestScheduleAsOfOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(1, func() {
		e.Schedule(5, func() { order = append(order, "born1") })
	})
	e.Schedule(3, func() {
		e.Schedule(5, func() { order = append(order, "born3") })
		e.ScheduleAsOf(5, 2, func() { order = append(order, "asof2") })
		e.ScheduleAsOf(5, 0.5, func() { order = append(order, "asof0.5") })
		e.ScheduleAsOf(1, 3, func() { // past: clamps to now
			order = append(order, fmt.Sprintf("clamped@%v", e.Now()))
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"clamped@3", "asof0.5", "born1", "asof2", "born3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestServerSerializesRequests(t *testing.T) {
	e := NewEngine(1)
	var s Server
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Schedule(0, func() {
			done := s.ServeAsync(e.Now(), 2)
			e.Schedule(done, func() { finish = append(finish, e.Now()) })
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
	if s.BusyTime() != 6 {
		t.Fatalf("BusyTime = %v, want 6", s.BusyTime())
	}
	if s.Served() != 3 {
		t.Fatalf("Served = %d, want 3", s.Served())
	}
}

func TestServerIdleGapDoesNotAccumulate(t *testing.T) {
	var s Server
	if first := s.ServeAsync(0, 1); first != 1 {
		t.Fatalf("first completion at %v, want 1", first)
	}
	// Server idle 1..10: the second request must finish at 11, not 2+...
	if second := s.ServeAsync(10, 1); second != 11 {
		t.Fatalf("second completion at %v, want 11", second)
	}
}

// TestServerReportsWaitTime checks the queueing a request sees: its wait
// is its completion minus its own service minus its arrival.
func TestServerReportsWaitTime(t *testing.T) {
	var s Server
	var waits []Time
	for i := 0; i < 3; i++ {
		done := s.ServeAsync(0, 5)
		waits = append(waits, done-5)
	}
	want := []Time{0, 5, 10}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("waits = %v, want %v", waits, want)
		}
	}
}

func TestServeAsync(t *testing.T) {
	var s Server
	if got := s.ServeAsync(10, 2); got != 12 {
		t.Fatalf("first async completion = %v, want 12", got)
	}
	if got := s.ServeAsync(10, 2); got != 14 {
		t.Fatalf("queued async completion = %v, want 14", got)
	}
	if got := s.ServeAsync(100, 1); got != 101 {
		t.Fatalf("idle-gap async completion = %v, want 101", got)
	}
}

func TestEngineRandDeterminism(t *testing.T) {
	draw := func(seed int64) []float64 {
		e := NewEngine(seed)
		out := make([]float64, 5)
		for i := range out {
			out[i] = e.Rand().Float64()
		}
		return out
	}
	a, b := draw(42), draw(42)
	c := draw(43)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Property: for any set of random wait chains, each machine observes
// non-decreasing time, and the engine clock ends at the max finish time.
func TestQuickVirtualTimeMonotonic(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		var maxEnd Time
		ends := make([]Time, n)
		for i := 0; i < n; i++ {
			i := i
			durs := make([]Time, rng.Intn(20)+1)
			for j := range durs {
				durs[j] = Time(rng.Float64())
			}
			var prev Time
			chain(e, durs, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			}, func() { ends[i] = e.Now() })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for _, end := range ends {
			if end > maxEnd {
				maxEnd = end
			}
		}
		return ok && e.Now() == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Server's total busy time equals the sum of service demands,
// and every request completes.
func TestQuickServerConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		var s Server
		var total, sumServed Time
		for i := 0; i < n; i++ {
			d := Time(rng.Float64() + 0.01)
			total += d
			arrive := Time(rng.Float64() * 2)
			e.Schedule(arrive, func() {
				done := s.ServeAsync(e.Now(), d)
				e.Schedule(done, func() { sumServed += d })
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		const eps = 1e-12
		return absT(s.BusyTime()-total) < eps && absT(sumServed-total) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func absT(t Time) Time {
	if t < 0 {
		return -t
	}
	return t
}
