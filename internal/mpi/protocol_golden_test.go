package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

var printProtocolGolden = flag.Bool("print-protocol-golden", false,
	"print the current lock-protocol golden digest instead of asserting")

// protocolStorm runs the lock-polling paths the paper's grid never reaches
// and returns every observable as text: one node whose port hosts two
// contended shared windows, so its pollers wait on different locks, and a
// lock taken by shared and exclusive lockers alike. Ranks 0-5 take window a
// exclusively; ranks 6-15 take window b, every third one exclusively and
// the rest shared. Holds are SS-like — one fetch-and-op plus a fraction of
// a microsecond under the lock, then a few microseconds of work — and
// window a's ranks start late, so the port first serves window b alone,
// both while its readers hold it and while it is free.
func protocolStorm(t testing.TB) string {
	eng := sim.NewEngine(1)
	cfg := cluster.MiniHPC(1)
	w, err := NewWorld(eng, &cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	grants := make([][]sim.Time, w.Size())
	var wins [2]*Win
	err = w.Launch(func(r *Rank) {
		nc := w.SplitTypeShared(r)
		nc.WinAllocateSharedCont(r, "a", 1, func(a *Win) {
			nc.WinAllocateSharedCont(r, "b", 1, func(b *Win) {
				wins[0], wins[1] = a, b
				id := r.Rank()
				win, lockType, iters := a, LockExclusive, 24
				if id >= 6 {
					win, iters = b, 40
					if id%3 != 0 {
						lockType = LockShared
					}
				}
				fop := win.NewFetchAndOpCont(r)
				l := newLocker(win, r, lockType)
				loop := func() {
					repeat(iters, func(i int, next func()) {
						l.Lock(func() {
							grants[id] = append(grants[id], eng.Now())
							fop(0, 0, 1, func(int64) {
								hold := sim.Time(2+(id*7+i*3)%5) * 100 * sim.Nanosecond
								after(r, hold, func() {
									l.Unlock(func() {
										gap := sim.Time(5+(id*5+i*11)%25) * 100 * sim.Nanosecond
										compute(r, gap, next)
									})
								})
							})
						})
					}, nil)
				}
				if win == a {
					compute(r, 500*sim.Microsecond, loop)
					return
				}
				loop()
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for id, g := range grants {
		out = fmt.Appendf(out, "rank %d:", id)
		for _, at := range g {
			out = fmt.Appendf(out, " %.17g", float64(at))
		}
		out = append(out, '\n')
	}
	for _, win := range wins {
		out = fmt.Appendf(out, "%s attempts=%d acquisitions=%d\n", win.Name(), win.LockAttempts, win.LockAcquisitions)
	}
	out = fmt.Appendf(out, "port busy %.17g end %.17g\n", float64(w.MemPortBusy(0)), float64(eng.Now()))
	return string(out)
}

// TestProtocolGolden pins the lock protocol's replay on the paths above —
// every grant time, both windows' attempt and acquisition counts, and the
// port's busy time — as one digest. Regenerate with
// go test ./internal/mpi -run TestProtocolGolden -args -print-protocol-golden
// only for a change whose output shift is explained.
func TestProtocolGolden(t *testing.T) {
	text := protocolStorm(t)
	sum := sha256.Sum256([]byte(text))
	digest := hex.EncodeToString(sum[:8])
	if *printProtocolGolden {
		fmt.Printf("%s\n%s", digest, text)
		return
	}
	if digest != protocolGoldenWant {
		t.Fatalf("protocol digest = %s, want %s", digest, protocolGoldenWant)
	}
}
