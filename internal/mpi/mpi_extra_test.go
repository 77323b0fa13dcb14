package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestCollectiveKindMismatchPanics(t *testing.T) {
	_, w := newTestWorld(t, 1, 2)
	panicked := false
	err := w.Launch(func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		if r.Rank() == 0 {
			w.Comm().BarrierCont(r, func() {})
		} else {
			w.Comm().WinAllocateCont(r, "x", 1, func(*Win) {})
		}
	})
	_ = err // the survivor never leaves its barrier; that's expected after the panic
	if !panicked {
		t.Fatal("mismatched collectives did not panic")
	}
}

func TestWinAccountingCounters(t *testing.T) {
	_, w := newTestWorld(t, 1, 4)
	var win *Win
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "acc", 1, func(wn *Win) {
			win = wn
			l := newLocker(wn, r)
			fop := wn.NewFetchAndOpCont(r)
			repeat(3, func(_ int, next func()) {
				l.Lock(func() {
					l.Unlock(func() { fop(0, 0, 1, func(int64) { next() }) })
				})
			}, nil)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if win.LockAcquisitions != 12 {
		t.Fatalf("LockAcquisitions = %d, want 12", win.LockAcquisitions)
	}
	if win.LockAttempts < 12 {
		t.Fatalf("LockAttempts = %d, want >= 12", win.LockAttempts)
	}
	if win.AtomicOps != 12 {
		t.Fatalf("AtomicOps = %d, want 12", win.AtomicOps)
	}
	if w.MemPortBusy(0) <= 0 {
		t.Fatal("window port recorded no busy time")
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	_, w := newTestWorld(t, 1, 1)
	panicked := false
	func() {
		// The release may fail inline or in a later event; either way the
		// panic leaves Launch.
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_ = w.Launch(func(r *Rank) {
			w.SplitTypeShared(r).WinAllocateSharedCont(r, "x", 1, func(win *Win) {
				newLocker(win, r).Unlock(func() {})
			})
		})
	}()
	if !panicked {
		t.Fatal("Unlock without Lock did not panic")
	}
}

// TestSecondLockOnPortPanics checks that a port serves one lock: when two
// ranks of one node contend for the locks of two windows hosted there, the
// second lock's issuer panics, naming both locks.
func TestSecondLockOnPortPanics(t *testing.T) {
	_, w := newTestWorld(t, 1, 2)
	var msg string
	func() {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		_ = w.Launch(func(r *Rank) {
			nc := w.SplitTypeShared(r)
			nc.WinAllocateSharedCont(r, "a", 1, func(a *Win) {
				nc.WinAllocateSharedCont(r, "b", 1, func(b *Win) {
					win := a
					if r.Rank() == 1 {
						win = b
					}
					l := newLocker(win, r)
					repeat(10, func(_ int, next func()) {
						l.Lock(func() { after(r, 2*sim.Microsecond, func() { l.Unlock(next) }) })
					}, nil)
				})
			})
		})
	}()
	if !strings.Contains(msg, "a[0]") || !strings.Contains(msg, "b[0]") {
		t.Fatalf("two locks on one port: panic %q, want one naming a[0] and b[0]", msg)
	}
}

func TestSharedAccessValidation(t *testing.T) {
	// Direct access to a non-shared window panics.
	_, w := newTestWorld(t, 1, 2)
	panicked := 0
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "plain", 1, func(win *Win) {
			defer func() {
				if recover() != nil {
					panicked++
				}
			}()
			win.Shared(r, 0)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if panicked != 2 {
		t.Fatalf("%d panics, want 2 (both ranks)", panicked)
	}
}

func TestManyRanksBarrierScales(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(16)
	w, err := NewWorld(eng, &cfg, 16) // 256 ranks
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	if err := w.Launch(func(r *Rank) {
		repeat(3, func(_ int, next func()) { w.Comm().BarrierCont(r, next) }, func() { done++ })
	}); err != nil {
		t.Fatal(err)
	}
	if done != 256 {
		t.Fatalf("%d ranks finished, want 256", done)
	}
}

func TestLockFairnessIsNotStarvation(t *testing.T) {
	// Polling locks are unfair, but over many acquisitions every rank must
	// make progress (the executor's liveness depends on it).
	_, w := newTestWorld(t, 1, 8)
	acq := make([]int, 8)
	err := w.Launch(func(r *Rank) {
		nc := w.SplitTypeShared(r)
		nc.WinAllocateSharedCont(r, "fair", 1, func(win *Win) {
			l := newLocker(win, r)
			repeat(50, func(_ int, next func()) {
				l.Lock(func() {
					after(r, 2*sim.Microsecond, func() {
						l.Unlock(func() {
							acq[nc.RankOf(r)]++
							compute(r, 10*sim.Microsecond, next)
						})
					})
				})
			}, nil)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range acq {
		if n != 50 {
			t.Fatalf("rank %d completed %d acquisitions, want 50", i, n)
		}
	}
}
