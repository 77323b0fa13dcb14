package core

import (
	"testing"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// TestEventCensus pins the engine events and the wake-chain upkeep five
// bench-representative 8-node, 16-worker MPI+MPI cells cost. Unlike wall
// clock, the counts are a pure function of the configuration, so a change
// to the event path or the lock protocol shows here as an exact
// difference.
func TestEventCensus(t *testing.T) {
	for _, tc := range []struct {
		inter, intra dls.Technique
		spec         string
		pushes       uint64
		// reconcilePort calls, wakes armed
		reconciles, armed int
	}{
		{dls.GSS, dls.GSS, "uniform:n=65536", 74933, 21172, 6069},
		{dls.GSS, dls.STATIC, "uniform:n=4096", 20309, 5853, 2658},
		{dls.STATIC, dls.SS, "uniform:n=16384", 82469, 27597, 11085},
		{dls.GSS, dls.SS, "uniform:n=16384", 88456, 29084, 12572},
		{dls.FAC2, dls.GSS, "uniform:n=16384", 60390, 17919, 7679},
	} {
		prof, err := workload.ParseSpec(tc.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Cluster:        cluster.MiniHPC(8),
			WorkersPerNode: 16,
			Inter:          tc.inter,
			Intra:          tc.intra,
			Workload:       prof,
			Approach:       MPIMPI,
			Seed:           1,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		lastRun.Lock()
		pushes, wakes := lastRun.pushes, lastRun.wakes
		lastRun.Unlock()
		if pushes != tc.pushes {
			t.Errorf("%s/%s %s: %d engine events, want %d", tc.inter, tc.intra, tc.spec, pushes, tc.pushes)
		}
		want := mpi.WakeCensus{Reconciles: tc.reconciles, WakesArmed: tc.armed}
		if wakes != want {
			t.Errorf("%s/%s %s: wake census %+v, want %+v", tc.inter, tc.intra, tc.spec, wakes, want)
		}
	}
}
