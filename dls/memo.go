package dls

import (
	"math"

	"repro/internal/memo"
)

// This file provides a process-wide memo of immutable schedules: sweep
// drivers run thousands of cells that rebuild identical schedules
// (same technique, N, P, statistical inputs and weights), so non-adaptive
// schedules — pure functions of (step, worker) — are constructed once and
// shared, up to maxSchedules of them. Adaptive techniques (the AWF family,
// AF) carry per-run mutable state and are never shared.
//
// FAC and TFSS extend an internal batch table lazily, which would race
// under concurrent sweep cells; Shared freezes them at construction by
// precomputing the full table (the recurrences reach their constant tail
// after finitely many batches), yielding chunk-for-chunk identical,
// immutable schedules.

// memoKey identifies a schedule construction. Weights (WF) are folded into
// a hash; the stored entry keeps the exact weights to rule out collisions.
type memoKey struct {
	t           Technique
	n, p, min   int
	mean, sigma float64
	overhead    float64
	wlen        int
	whash       uint64
}

type memoEntry struct {
	sched   Schedule
	weights []float64
}

// maxSchedules bounds the schedule memo by entries. A sweep of the paper's
// 256-cell grid retains 1,738 schedules at scale 64, 5,906 at scale 8 and
// 13,082 at scale 1; the bound holds all three grids' 20,726 together.
// A retained schedule holds 290–500 bytes of live heap on amd64 (290 over
// the grid at scale 64, 496 for FAC at N = 2048), so the bound pins at
// most about 16 MiB. The key carries the profile's measured mean and
// sigma, so every fresh-seed cell of a random workload adds keys; past
// the bound those schedules are built per call instead of retained.
const maxSchedules = 1 << 15

var schedules = memo.New[memoKey](maxSchedules, func(*memoEntry) int64 { return 1 })

func hashWeights(ws []float64) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for _, w := range ws {
		b := math.Float64bits(w)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> uint(s)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func weightsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Shared returns a process-wide memoized schedule for technique t with
// parameters p, safe for concurrent use from independent simulations. The
// returned schedule produces chunk sizes identical to MustNew(t, p) for
// every (step, worker). Adaptive techniques fall back to a fresh mutable
// schedule, as they must. The memo retains at most maxSchedules
// schedules; past the bound Shared builds and freezes a schedule on every
// call, the same chunks unshared.
func Shared(t Technique, p Params) Schedule {
	if t.IsAdaptive() {
		return MustNew(t, p)
	}
	key := memoKey{
		t: t, n: p.N, p: p.P, min: p.MinChunk,
		mean: p.Mean, sigma: p.Sigma, overhead: p.Overhead,
		wlen: len(p.Weights), whash: hashWeights(p.Weights),
	}
	e, _ := schedules.Get(key, func() (*memoEntry, error) {
		s := MustNew(t, p)
		freeze(s)
		e := &memoEntry{sched: s}
		if p.Weights != nil {
			e.weights = append([]float64(nil), p.Weights...)
		}
		return e, nil
	})
	if !weightsEqual(e.weights, p.Weights) {
		return MustNew(t, p) // astronomically unlikely hash collision
	}
	return e.sched
}

// freeze precomputes the lazily extended batch tables of FAC and TFSS so
// the shared instance is immutable. Both recurrences reach a constant tail:
// FAC once the remaining-iteration counter hits zero (every later batch
// yields the clamped minimum), TFSS once the underlying TSS linear decrease
// has bottomed out at its last chunk.
func freeze(s Schedule) {
	switch f := s.(type) {
	case *facSched:
		for batch := 0; ; batch++ {
			f.extendTo(batch)
			if f.remaining[batch] <= 0 {
				f.frozen = true
				return
			}
		}
	case *tfssSched:
		// Beyond the TSS step horizon every chunk is the clamped minimum,
		// so batches past ⌈steps/P⌉ are constant; precompute one beyond.
		last := f.tss.steps/f.p.P + 1
		f.extendTo(last)
		f.frozen = true
	}
}
