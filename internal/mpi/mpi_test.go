package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func newTestWorld(t testing.TB, nodes, perNode int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(nodes)
	w, err := NewWorld(eng, &cfg, perNode)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// repeat runs body n times in sequence on a machine rank, then done (if
// non-nil). body receives its iteration and the continuation starting the
// next one.
func repeat(n int, body func(i int, next func()), done func()) {
	i := 0
	var next func()
	next = func() {
		if i == n {
			if done != nil {
				done()
			}
			return
		}
		i++
		body(i-1, next)
	}
	next()
}

// after runs fn d after now on r's engine.
func after(r *Rank, d sim.Time, fn func()) { r.World().Engine().After(d, fn) }

// compute runs fn after ref seconds of reference work on r's core.
func compute(r *Rank, ref sim.Time, fn func()) { after(r, r.ComputeCost(ref), fn) }

// locker wraps one rank's lock and unlock issuers on win[0] so each
// acquisition can continue differently.
type locker struct {
	eng            *sim.Engine
	lock           func()
	unlock         func(arrival, born sim.Time)
	granted, freed func()
}

func newLocker(win *Win, r *Rank, lockType int) *locker {
	l := &locker{eng: r.World().Engine()}
	l.lock = win.NewLockCont(r, 0, lockType, func() { l.granted() })
	l.unlock = win.NewUnlockCont(r, 0, lockType, func(sim.Time) { l.freed() })
	return l
}

// Lock acquires the lock and runs then holding it.
func (l *locker) Lock(then func()) {
	l.granted = then
	l.lock()
}

// Unlock releases the lock now and runs then after the release.
func (l *locker) Unlock(then func()) {
	l.freed = then
	now := l.eng.Now()
	l.unlock(now, now)
}

func TestWorldLayout(t *testing.T) {
	_, w := newTestWorld(t, 3, 4)
	if w.Size() != 12 {
		t.Fatalf("Size = %d, want 12", w.Size())
	}
	for r := 0; r < 12; r++ {
		rk := w.Rank(r)
		if rk.Node() != r/4 || rk.Core() != r%4 {
			t.Fatalf("rank %d placed at node %d core %d", r, rk.Node(), rk.Core())
		}
	}
}

func TestNewWorldRejectsOversubscription(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(2)
	if _, err := NewWorld(eng, &cfg, cfg.CoresPerNode+1); err == nil {
		t.Fatal("NewWorld accepted ranksPerNode > CoresPerNode")
	}
	if _, err := NewWorld(eng, &cfg, 0); err == nil {
		t.Fatal("NewWorld accepted ranksPerNode = 0")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, w := newTestWorld(t, 2, 4)
	var minExit sim.Time = 1 << 30
	left := 0
	err := w.Launch(func(r *Rank) {
		after(r, sim.Time(r.Rank())*0.5, func() { // staggered arrivals
			w.Comm().BarrierCont(r, func() {
				left++
				if eng.Now() < minExit {
					minExit = eng.Now()
				}
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	lastArrival := sim.Time(7) * 0.5
	if left != 8 || minExit < lastArrival {
		t.Fatalf("%d ranks left the barrier, first at %v, before last arrival %v", left, minExit, lastArrival)
	}
}

func TestBarrierRepeats(t *testing.T) {
	_, w := newTestWorld(t, 2, 2)
	count := 0
	err := w.Launch(func(r *Rank) {
		repeat(5, func(_ int, next func()) { w.Comm().BarrierCont(r, next) }, func() { count++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("%d ranks completed, want 4", count)
	}
}

func TestSplitTypeShared(t *testing.T) {
	_, w := newTestWorld(t, 2, 3)
	comms := make([]*Comm, 6)
	ranks := make([]int, 6)
	err := w.Launch(func(r *Rank) {
		c := w.SplitTypeShared(r)
		comms[r.Rank()] = c
		ranks[r.Rank()] = c.RankOf(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if comms[0] != comms[1] || comms[1] != comms[2] {
		t.Fatal("node 0 ranks got different node communicators")
	}
	if comms[3] != comms[4] || comms[4] != comms[5] {
		t.Fatal("node 1 ranks got different node communicators")
	}
	if comms[0] == comms[3] {
		t.Fatal("different nodes share a node communicator")
	}
	for i := 0; i < 6; i++ {
		if ranks[i] != i%3 {
			t.Fatalf("world rank %d has node rank %d, want %d", i, ranks[i], i%3)
		}
		if comms[i].Size() != 3 {
			t.Fatalf("node comm size = %d, want 3", comms[i].Size())
		}
	}
}

func TestWinAllocateAndAtomics(t *testing.T) {
	_, w := newTestWorld(t, 2, 2)
	const perRank = 100
	sum := int64(-1)
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "ctr", 4, func(win *Win) {
			fop := win.NewFetchAndOpCont(r)
			repeat(perRank, func(_ int, next func()) {
				fop(0, 0, 1, func(int64) { next() })
			}, func() {
				w.Comm().BarrierCont(r, func() {
					if r.Rank() == 0 {
						fop(0, 0, 0, func(old int64) { sum = old })
					}
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4*perRank {
		t.Fatalf("counter = %d, want %d", sum, 4*perRank)
	}
}

func TestFetchAndOpReturnsDistinctOldValues(t *testing.T) {
	_, w := newTestWorld(t, 2, 4)
	seen := map[int64]int{}
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "ctr", 1, func(win *Win) {
			fop := win.NewFetchAndOpCont(r)
			repeat(10, func(_ int, next func()) {
				fop(0, 0, 1, func(old int64) {
					seen[old]++
					next()
				})
			}, nil)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 80 {
		t.Fatalf("got %d distinct ticket values, want 80", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("ticket %d issued %d times", v, n)
		}
		if v < 0 || v >= 80 {
			t.Fatalf("ticket %d out of range", v)
		}
	}
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	_, w := newTestWorld(t, 1, 8)
	inside, peak, done := 0, 0, 0
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 2, func(win *Win) {
			l := newLocker(win, r, LockExclusive)
			repeat(5, func(_ int, next func()) {
				l.Lock(func() {
					inside++
					if inside > peak {
						peak = inside
					}
					compute(r, 10*sim.Microsecond, func() {
						inside--
						l.Unlock(next)
					})
				})
			}, func() { done++ })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 8 || peak != 1 {
		t.Fatalf("%d ranks done, peak lock holders = %d; want 8 and 1", done, peak)
	}
}

func TestSharedLockAllowsReadersExcludesWriter(t *testing.T) {
	eng, w := newTestWorld(t, 1, 4)
	readersPeak := 0
	readers := 0
	var writerAt, lastReaderRelease sim.Time
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "rw", 1, func(win *Win) {
			if r.Rank() < 3 {
				l := newLocker(win, r, LockShared)
				l.Lock(func() {
					readers++
					if readers > readersPeak {
						readersPeak = readers
					}
					after(r, 100*sim.Microsecond, func() {
						readers--
						if eng.Now() > lastReaderRelease {
							lastReaderRelease = eng.Now()
						}
						l.Unlock(func() {})
					})
				})
				return
			}
			l := newLocker(win, r, LockExclusive)
			after(r, 10*sim.Microsecond, func() { // let readers in first
				l.Lock(func() {
					writerAt = eng.Now()
					l.Unlock(func() {})
				})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if readersPeak < 2 {
		t.Fatalf("readers did not overlap: peak = %d", readersPeak)
	}
	if writerAt < lastReaderRelease {
		t.Fatalf("writer entered at %v before readers released at %v", writerAt, lastReaderRelease)
	}
}

func TestLockAttemptsGrowUnderContention(t *testing.T) {
	attemptsFor := func(perNode int) float64 {
		_, w := newTestWorld(t, 1, perNode)
		var win *Win
		if err := w.Launch(func(r *Rank) {
			w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 1, func(wn *Win) {
				win = wn
				l := newLocker(wn, r, LockExclusive)
				repeat(20, func(_ int, next func()) {
					l.Lock(func() { after(r, 2*sim.Microsecond, func() { l.Unlock(next) }) })
				}, nil)
			})
		}); err != nil {
			t.Fatal(err)
		}
		return float64(win.LockAttempts) / float64(win.LockAcquisitions)
	}
	solo := attemptsFor(1)
	crowd := attemptsFor(16)
	if solo != 1 {
		t.Fatalf("uncontended attempts per acquisition = %v, want 1", solo)
	}
	if crowd < 1.5 {
		t.Fatalf("contended attempts per acquisition = %v, want noticeably > 1", crowd)
	}
}

func TestRemoteAtomicSlowerThanLocal(t *testing.T) {
	eng, w := newTestWorld(t, 2, 2)
	var localT, remoteT sim.Time
	err := w.Launch(func(r *Rank) {
		w.Comm().WinAllocateCont(r, "x", 1, func(win *Win) {
			fop := win.NewFetchAndOpCont(r)
			timed := func(out *sim.Time) {
				t0 := eng.Now()
				fop(0, 0, 1, func(int64) { *out = eng.Now() - t0 })
			}
			w.Comm().BarrierCont(r, func() {
				switch r.Rank() {
				case 1: // same node as target rank 0
					timed(&localT)
				case 2: // different node; wait out port interference
					after(r, sim.Millisecond, func() { timed(&remoteT) })
				}
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteT <= localT {
		t.Fatalf("remote atomic %v not slower than local %v", remoteT, localT)
	}
	if remoteT < 2*w.Cluster().Net.Latency {
		t.Fatalf("remote atomic %v cheaper than a round trip %v", remoteT, 2*w.Cluster().Net.Latency)
	}
}

func TestSharedWindowDirectAccess(t *testing.T) {
	_, w := newTestWorld(t, 1, 2)
	var got int64
	err := w.Launch(func(r *Rank) {
		nc := w.SplitTypeShared(r)
		nc.WinAllocateSharedCont(r, "s", 4, func(win *Win) {
			if r.Rank() == 0 {
				win.Shared(r, 1)[3] = 77
			}
			nc.BarrierCont(r, func() {
				if r.Rank() == 1 {
					got = win.Shared(r, 1)[3]
				}
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("shared read = %d, want 77", got)
	}
}

func TestWinAllocateSharedRejectsMultiNodeComm(t *testing.T) {
	_, w := newTestWorld(t, 2, 1)
	panicked := 0
	err := w.Launch(func(r *Rank) {
		defer func() {
			if recover() != nil {
				panicked++
			}
		}()
		w.Comm().WinAllocateSharedCont(r, "bad", 1, func(*Win) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if panicked != 2 {
		t.Fatalf("%d ranks panicked, want both: a shared window on a multi-node communicator", panicked)
	}
}

func TestComputeScalesWithNodeSpeed(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPCHetero(2, 1.0, 0.5)
	w, err := NewWorld(eng, &cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]sim.Time, 2)
	if err := w.Launch(func(r *Rank) {
		t0 := eng.Now()
		compute(r, 1, func() { times[r.Rank()] = eng.Now() - t0 })
	}); err != nil {
		t.Fatal(err)
	}
	if times[0] != 1 {
		t.Fatalf("full-speed node took %v, want 1", times[0])
	}
	if times[1] != 2 {
		t.Fatalf("half-speed node took %v, want 2", times[1])
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Time {
		eng := sim.NewEngine(99)
		cfg := cluster.MiniHPC(2)
		w, err := NewWorld(eng, &cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		if err := w.Launch(func(r *Rank) {
			w.Comm().WinAllocateCont(r, "ctr", 1, func(win *Win) {
				fop := win.NewFetchAndOpCont(r)
				var take func()
				take = func() {
					fop(0, 0, 1, func(tkt int64) {
						if tkt >= 200 {
							w.Comm().BarrierCont(r, func() { last = eng.Now() })
							return
						}
						compute(r, sim.Time(tkt%7+1)*10*sim.Microsecond, take)
					})
				}
				take()
			})
		}); err != nil {
			t.Fatal(err)
		}
		return last
	}
	a, b := run(), run()
	if a == 0 || a != b {
		t.Fatalf("two identical runs finished at %v and %v", a, b)
	}
}

func BenchmarkFetchAndOpLocal(b *testing.B) {
	_, w := newTestWorld(b, 1, 2)
	b.ResetTimer()
	err := w.Launch(func(r *Rank) {
		w.SplitTypeShared(r).WinAllocateSharedCont(r, "b", 1, func(win *Win) {
			fop := win.NewFetchAndOpCont(r)
			repeat(b.N, func(_ int, next func()) { fop(0, 0, 1, func(int64) { next() }) }, nil)
		})
	})
	if err != nil {
		b.Fatal(err)
	}
}
