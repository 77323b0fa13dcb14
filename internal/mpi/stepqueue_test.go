package mpi

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestStepQueuesMatchMinScan drives a port's two poll-step queues the way
// advancePort does — take the earliest step, then move its poller to either
// queue at a later position — and compares every selection with a reference
// that scans all pending keys for the (at, born, reg) minimum, spelled out
// here rather than through keyLess. Positions drift upward, as virtual time
// does, so most pushes append; small random offsets force exact (at, born)
// ties, which registration order must break, and out-of-order inserts.
// Over a long run the queues' capacity must stay within a small multiple of
// their peak live length.
func TestStepQueuesMatchMinScan(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pt rmaPort
		var ref []pollerKey
		peak := [2]int{}
		live := [2]int{}
		var base sim.Time
		key := func(pl *poller) pollerKey {
			at := base + sim.Time(rng.Intn(6))
			return pollerKey{at: at, born: at - sim.Time(rng.Intn(3)), pl: pl}
		}
		push := func(k pollerKey, check bool) {
			q := 0
			if check {
				pt.checks.push(k)
				q = 1
			} else {
				pt.arrivals.push(k)
			}
			ref = append(ref, k)
			if live[q]++; live[q] > peak[q] {
				peak[q] = live[q]
			}
		}
		pollers := 1 + rng.Intn(24)
		for i := 0; i < pollers; i++ {
			push(key(&poller{reg: uint32(i + 1)}), rng.Intn(2) == 0)
		}
		for step := 0; step < 20000; step++ {
			got, check := pt.next()
			m := 0
			for i, k := range ref {
				r := ref[m]
				if k.at < r.at || k.at == r.at && (k.born < r.born || k.born == r.born && k.pl.reg < r.pl.reg) {
					m = i
				}
			}
			if got == nil || got.pl != ref[m].pl || got.at != ref[m].at || got.born != ref[m].born {
				t.Fatalf("seed %d step %d: selected %+v, reference minimum %+v", seed, step, got, ref[m])
			}
			pl := got.pl
			q := 0
			if check {
				pt.checks.pop()
				q = 1
			} else {
				pt.arrivals.pop()
			}
			live[q]--
			ref = append(ref[:m], ref[m+1:]...)
			if rng.Intn(4) == 0 {
				base++
			}
			push(key(pl), rng.Intn(2) == 0)
		}
		for q, s := range []*stepQueue{&pt.arrivals, &pt.checks} {
			if limit := 5*peak[q] + 8; cap(s.q) > limit {
				t.Fatalf("seed %d: queue %d grew to capacity %d for a peak of %d live keys", seed, q, cap(s.q), peak[q])
			}
		}
	}
}
