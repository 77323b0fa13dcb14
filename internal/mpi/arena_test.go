package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestRankOfIndexed checks the O(1) RankOf on every communicator shape:
// the world communicator and the node communicators, members and not.
func TestRankOfIndexed(t *testing.T) {
	cl := cluster.MiniHPC(4)
	eng := sim.NewEngine(1)
	w, err := NewWorld(eng, &cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Launch(func(r *Rank) {
		if got := w.Comm().RankOf(r); got != r.Rank() {
			t.Errorf("world RankOf(%d) = %d", r.Rank(), got)
		}
		nc := w.SplitTypeShared(r)
		me := nc.RankOf(r)
		if me != r.Core() {
			t.Errorf("node RankOf(rank %d) = %d, want core %d", r.Rank(), me, r.Core())
		}
		if nc.WorldRank(me) != r.Rank() {
			t.Errorf("node comm index broken: RankOf→WorldRank = %d for rank %d", nc.WorldRank(me), r.Rank())
		}
		// Ranks of the neighbouring nodes are never members.
		for _, other := range []int{r.Rank() - 4, r.Rank() + 4} {
			if other >= 0 && other < w.Size() {
				if got := nc.RankOf(w.Rank(other)); got != -1 {
					t.Errorf("RankOf(non-member %d) = %d, want -1", other, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldResetMatchesFresh verifies World.Reset's pooling contract: a
// world reset onto a reset engine reproduces a fresh world's run bit for
// bit, including RMA lock accounting, across a shape change.
func TestWorldResetMatchesFresh(t *testing.T) {
	// Every rank takes its node's queue lock and bumps the global counter
	// inside the critical section.
	run := func(eng *sim.Engine, w *World) (int64, int64, sim.Time) {
		var gw *Win
		var attempts int64
		err := w.Launch(func(r *Rank) {
			w.Comm().WinAllocateCont(r, "w", 2, func(g *Win) {
				gw = g
				w.SplitTypeShared(r).WinAllocateSharedCont(r, "q", 1, func(lw *Win) {
					l := newLocker(lw, r, LockExclusive)
					fop := g.NewFetchAndOpCont(r)
					w.Comm().BarrierCont(r, func() {
						l.Lock(func() {
							fop(0, 0, 1, func(int64) {
								l.Unlock(func() { attempts += lw.LockAttempts })
							})
						})
					})
				})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return gw.data[0][0], attempts, eng.Now()
	}

	cl := cluster.MiniHPC(2)
	engF := sim.NewEngine(5)
	wF, err := NewWorld(engF, &cl, 8)
	if err != nil {
		t.Fatal(err)
	}
	sumF, attF, endF := run(engF, wF)

	// Pooled path: dirty the arena with a different shape first.
	eng := sim.NewEngine(99)
	clBig := cluster.MiniHPCHetero(3, 1.0, 0.5)
	w, err := NewWorld(eng, &clBig, 4)
	if err != nil {
		t.Fatal(err)
	}
	run(eng, w)
	eng.Reset(5)
	if err := w.Reset(eng, &cl, 8); err != nil {
		t.Fatal(err)
	}
	sumP, attP, endP := run(eng, w)

	if sumF != sumP || attF != attP || endF != endP {
		t.Fatalf("reset world diverged: fresh (sum %v, attempts %d, end %v) vs pooled (%v, %d, %v)",
			sumF, attF, endF, sumP, attP, endP)
	}
}

// TestWorldResetRejectsBadShape mirrors NewWorld's validation.
func TestWorldResetRejectsBadShape(t *testing.T) {
	cl := cluster.MiniHPC(2)
	eng := sim.NewEngine(1)
	w, err := NewWorld(eng, &cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch(func(*Rank) {}); err != nil {
		t.Fatal(err)
	}
	eng.Reset(1)
	if err := w.Reset(eng, &cl, 999); err == nil {
		t.Fatal("Reset accepted ranksPerNode beyond the core count")
	}
}

// BenchmarkCommRankOf measures the O(1) rank lookup the executors lean on
// (it was a linear scan before the precomputed index).
func BenchmarkCommRankOf(b *testing.B) {
	cl := cluster.MiniHPC(16)
	eng := sim.NewEngine(1)
	w, err := NewWorld(eng, &cl, 16)
	if err != nil {
		b.Fatal(err)
	}
	var comms []*Comm
	err = w.Launch(func(r *Rank) { comms = append(comms, w.SplitTypeShared(r)) })
	if err != nil {
		b.Fatal(err)
	}
	last := w.Rank(w.Size() - 1) // worst case for the old linear scan
	nc := comms[len(comms)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.Comm().RankOf(last) < 0 || nc.RankOf(last) < 0 {
			b.Fatal("rank not found")
		}
	}
}
