package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestEngineResetMatchesFresh verifies the arena-pooling contract: a Reset
// engine is observationally identical to a fresh one — same clock, same RNG
// stream, same event order — even after a run that exercised the queue's
// layouts and the payload free-list. The lazily seeded RNG must draw the
// standard source's stream after NewEngine, after a Reset that follows a
// run that drew or one that did not, and after back-to-back Resets.
func TestEngineResetMatchesFresh(t *testing.T) {
	scenario := func(e *Engine) []Time {
		var fired []Time
		for i := 0; i < 3; i++ {
			durs := make([]Time, 4)
			for j := range durs {
				durs[j] = Time(i+1) * Microsecond * Time(j+1)
			}
			chain(e, durs, func() {
				fired = append(fired, e.Now()+Time(e.Rand().Float64())*Nanosecond)
			}, nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	fresh := scenario(NewEngine(42))

	e := NewEngine(7)
	scenario(e) // dirty the engine with a different seed's run
	e.Reset(42)
	if e.Now() != 0 || e.PushStamp() != 0 {
		t.Fatalf("Reset left state: now=%v pushes=%d", e.Now(), e.PushStamp())
	}
	again := scenario(e)
	if len(fresh) != len(again) {
		t.Fatalf("event counts differ: %d vs %d", len(fresh), len(again))
	}
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("event %d differs: fresh %v, reset %v", i, fresh[i], again[i])
		}
	}

	// The source seeds itself on its first draw: whatever the engine's
	// history, the first 1,000 draws must equal the standard source's.
	const s = 42
	want := drawMix(rand.New(rand.NewSource(s)))
	check := func(what string, e *Engine) {
		t.Helper()
		got := drawMix(e.Rand())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: draw %d = %#x, want %#x", what, i, got[i], want[i])
			}
		}
	}
	check("NewEngine", NewEngine(s))

	e = NewEngine(s)
	scenario(e) // a run that drew
	e.Reset(s)
	check("Reset after a run that drew", e)

	e = NewEngine(7)
	chain(e, []Time{Microsecond, Microsecond}, nil, nil) // a run that never drew
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset(s)
	check("Reset after a run that did not draw", e)

	e = NewEngine(7)
	e.Rand().Int63()
	e.Reset(9)
	e.Reset(s)
	check("two back-to-back Resets", e)
}

// drawMix draws 1,000 values from r, cycling through Int63, Float64,
// NormFloat64, Intn and Uint64, and returns their bit patterns.
func drawMix(r *rand.Rand) []uint64 {
	out := make([]uint64, 1000)
	for i := range out {
		switch i % 5 {
		case 0:
			out[i] = uint64(r.Int63())
		case 1:
			out[i] = math.Float64bits(r.Float64())
		case 2:
			out[i] = math.Float64bits(r.NormFloat64())
		case 3:
			out[i] = uint64(r.Intn(1000))
		case 4:
			out[i] = r.Uint64()
		}
	}
	return out
}

// TestEngineResetRefusesDirtyEngine pins the safety contract: an engine
// with pending events must not be pooled.
func TestEngineResetRefusesDirtyEngine(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1*Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted an engine with pending events")
		}
	}()
	e.Reset(2)
}

// TestQueueOrderAcrossLayouts drives the event queue through every layout —
// front buffer, sorted gap buffer, heapified spill, and the low-water
// re-sort back to the array — and asserts the firing order is the exact
// (t, born, seq) total order throughout.
func TestQueueOrderAcrossLayouts(t *testing.T) {
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(9))
	const n = 4000 // far beyond arrayModeMax: forces heapify and the drain re-sort
	type key struct {
		t   Time
		seq int
	}
	want := make([]key, 0, n)
	got := make([]key, 0, n)
	for i := 0; i < n; i++ {
		// Clustered times with deliberate duplicates to exercise tie-breaks.
		at := Time(rng.Intn(500)) * Microsecond
		k := key{t: at, seq: i}
		want = append(want, k)
		e.Schedule(at, func() { got = append(got, k) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All events were scheduled at now=0, so the expected order is (t, then
	// scheduling order) — a stable sort by time.
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired out of order: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
