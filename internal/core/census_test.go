package core

import (
	"testing"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/workload"
)

// TestEventCensus pins the engine events five bench-representative 8-node,
// 16-worker MPI+MPI cells cost. Unlike wall clock, the count is a pure
// function of the configuration, so a change to the event path shows here
// as an exact difference.
func TestEventCensus(t *testing.T) {
	for _, tc := range []struct {
		inter, intra dls.Technique
		spec         string
		pushes       uint64
	}{
		{dls.GSS, dls.GSS, "uniform:n=65536", 74933},
		{dls.GSS, dls.STATIC, "uniform:n=4096", 20309},
		{dls.STATIC, dls.SS, "uniform:n=16384", 82469},
		{dls.GSS, dls.SS, "uniform:n=16384", 88456},
		{dls.FAC2, dls.GSS, "uniform:n=16384", 60390},
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
		if got := lastRunPushes.Load(); got != tc.pushes {
			t.Errorf("%s/%s %s: %d engine events, want %d", tc.inter, tc.intra, tc.spec, got, tc.pushes)
		}
	}
}
