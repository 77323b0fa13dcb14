package dls

import (
	"sync"
	"testing"
)

// memoCases cover every non-adaptive technique, including the frozen-table
// pair (FAC, TFSS) and the weighted WF.
func memoCases() []struct {
	name string
	t    Technique
	p    Params
} {
	return []struct {
		name string
		t    Technique
		p    Params
	}{
		{"static", STATIC, Params{N: 4096, P: 16}},
		{"ss", SS, Params{N: 4096, P: 16}},
		{"fsc", FSC, Params{N: 4096, P: 16, Sigma: 2e-5, Overhead: 3e-6}},
		{"gss", GSS, Params{N: 4096, P: 16}},
		{"tss", TSS, Params{N: 4096, P: 16}},
		{"fac", FAC, Params{N: 4096, P: 16, Mean: 1e-4, Sigma: 3e-5}},
		{"fac2", FAC2, Params{N: 4096, P: 16}},
		{"tfss", TFSS, Params{N: 4096, P: 16}},
		{"rnd", RND, Params{N: 4096, P: 16}},
		{"wf", WF, Params{N: 4096, P: 4, Weights: []float64{1, 0.5, 2, 1.5}}},
		{"fac-tiny", FAC, Params{N: 7, P: 16, Mean: 1e-4, Sigma: 1e-4}},
		{"tfss-tiny", TFSS, Params{N: 5, P: 3}},
	}
}

// TestSharedMatchesFresh asserts the memoized (and, for FAC/TFSS, frozen)
// schedules produce chunk-for-chunk identical sequences to fresh mutable
// ones, far past the point where their batch tables reach the constant
// tail.
func TestSharedMatchesFresh(t *testing.T) {
	for _, tc := range memoCases() {
		shared := Shared(tc.t, tc.p)
		fresh := MustNew(tc.t, tc.p)
		for step := 0; step < 3*tc.p.N/tc.p.P+64; step++ {
			for w := 0; w < tc.p.P; w++ {
				if g, want := shared.Chunk(step, w), fresh.Chunk(step, w); g != want {
					t.Fatalf("%s: Chunk(%d,%d) = %d, fresh %d", tc.name, step, w, g, want)
				}
			}
		}
	}
}

// TestSharedConcurrentByteIdentical hammers the memo from many goroutines —
// run under -race in CI — and checks every observer sees the same instance
// producing the same chunks as an independently built schedule.
func TestSharedConcurrentByteIdentical(t *testing.T) {
	cases := memoCases()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fresh := make([]Schedule, len(cases))
			for i, tc := range cases {
				fresh[i] = MustNew(tc.t, tc.p)
			}
			for round := 0; round < 20; round++ {
				for i, tc := range cases {
					s := Shared(tc.t, tc.p)
					step := (g*31 + round*7) % (2 * tc.p.P * 8)
					w := g % tc.p.P
					if got, want := s.Chunk(step, w), fresh[i].Chunk(step, w); got != want {
						errs <- tc.name
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Fatalf("%s: concurrent Shared diverged from fresh schedule", name)
	}
}

// TestSharedAdaptiveNotMemoized guards the must-not-share rule: adaptive
// schedules carry run-local state.
func TestSharedAdaptiveNotMemoized(t *testing.T) {
	p := Params{N: 1024, P: 8, Mean: 1e-4}
	a := Shared(AWFB, p)
	b := Shared(AWFB, p)
	if a == b {
		t.Fatal("adaptive schedule was memoized; it must stay per-run")
	}
	if _, ok := a.(Adaptive); !ok {
		t.Fatal("Shared(AWFB) lost the Adaptive interface")
	}
}

// TestSharedBounded fills the schedule memo to maxSchedules with distinct
// keys: the memo never holds more, and past the bound Shared serves every
// non-adaptive technique's schedule unretained (a fresh instance per call),
// chunk-for-chunk equal to MustNew's.
func TestSharedBounded(t *testing.T) {
	for n := 1; schedules.Used() < maxSchedules; n++ {
		Shared(SS, Params{N: n, P: 1})
	}
	for _, tc := range memoCases() {
		p := tc.p
		p.Overhead += 1e-7 // a key no other test has retained
		a, b := Shared(tc.t, p), Shared(tc.t, p)
		if a == b {
			t.Errorf("%s: retained past the bound", tc.name)
		}
		fresh := MustNew(tc.t, p)
		for step := 0; step < 3*p.N/p.P+64; step++ {
			for w := 0; w < p.P; w++ {
				if got, want := a.Chunk(step, w), fresh.Chunk(step, w); got != want {
					t.Fatalf("%s past the bound: Chunk(%d,%d) = %d, MustNew %d", tc.name, step, w, got, want)
				}
			}
		}
	}
	if used := schedules.Used(); used != maxSchedules {
		t.Errorf("memo holds %d schedules, bound %d", used, maxSchedules)
	}
}
