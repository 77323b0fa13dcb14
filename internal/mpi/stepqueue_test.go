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

// TestFreeLockArmMatchesWalk checks reconcilePort's head arm against a
// registration-order walk of the pollers, spelled out here, that arms the
// lock's wake. Each draw registers 1–24 pollers, parks each one's step in
// either queue at keys with exact (at, born) ties, and sets the port's
// prior mark before, at or after the earliest step, or leaves it unset.
// Then it frees the lock, or leaves it held, and reconciles. The port's
// mark and the number of wake events scheduled must equal the walk's.
func TestFreeLockArmMatchesWalk(t *testing.T) {
	type mark struct {
		at, born sim.Time
		set      bool
	}
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 20000; draw++ {
		eng := sim.NewEngine(1)
		pt := &rmaPort{}
		w := &World{eng: eng, memPort: []*rmaPort{pt}}
		n := 1 + rng.Intn(24)
		base := sim.Time(1 + rng.Intn(4))
		pollers := make([]*poller, n)
		for i := range pollers {
			at := base + sim.Time(rng.Intn(4))
			pollers[i] = &poller{at: at, born: at - sim.Time(1+rng.Intn(2))}
			pt.pushPoller(pollers[i])
		}
		// Park each poller's one pending step in either queue.
		pt.arrivals.reset()
		for _, pl := range pollers {
			k := pollerKey{at: pl.at, born: pl.born, pl: pl}
			if rng.Intn(2) == 0 {
				pt.checks.push(k)
			} else {
				pt.arrivals.push(k)
			}
		}
		// The earliest step by (at, born), scanned over the pollers.
		first := pollers[0]
		for _, pl := range pollers {
			if pl.at < first.at || pl.at == first.at && pl.born < first.born {
				first = pl
			}
		}
		switch rng.Intn(6) {
		case 0: // no mark
		case 1:
			pt.wakeAt, pt.wakeBorn, pt.wakeSet = first.at-1, first.born+1, true
		case 2:
			pt.wakeAt, pt.wakeBorn, pt.wakeSet = first.at, first.born-1, true
		case 3:
			pt.wakeAt, pt.wakeBorn, pt.wakeSet = first.at, first.born, true
		case 4:
			pt.wakeAt, pt.wakeBorn, pt.wakeSet = first.at, first.born+1, true
		case 5:
			pt.wakeAt, pt.wakeBorn, pt.wakeSet = first.at+1, first.born-1, true
		}
		// The lock after a release: free, or in one draw of four still
		// held by a winner.
		pt.held = rng.Intn(4) == 0

		// The walk: in registration order, every poller that can take the
		// lock moves its mark to the poller's step when that step is
		// earlier; one wake is armed if the mark moved.
		want, wantWakes := mark{pt.wakeAt, pt.wakeBorn, pt.wakeSet}, uint32(0)
		for _, pl := range pollers {
			if pt.held {
				continue
			}
			if want.set && (want.at < pl.at || want.at == pl.at && want.born <= pl.born) {
				continue
			}
			want = mark{pl.at, pl.born, true}
			wantWakes = 1
		}
		pushes := eng.PushStamp()
		w.reconcilePort(0)
		got := mark{pt.wakeAt, pt.wakeBorn, pt.wakeSet}
		if got != want || eng.PushStamp()-pushes != wantWakes {
			t.Fatalf("draw %d (%d pollers, held %v): mark %+v and %d wakes, walk gives %+v and %d",
				draw, n, pt.held, got, eng.PushStamp()-pushes, want, wantWakes)
		}
	}
}
