package hdls_test

import (
	"encoding/json"
	"testing"

	"repro/dls"
	"repro/hdls"
)

// allocGateCell is the cell of the allocation gates: the benchmark's
// small-cell shape, with every enum field set.
var allocGateCell = hdls.Config{
	Nodes: 2, WorkersPerNode: 4, Inter: dls.FAC2, Intra: dls.GSS,
	Approach: hdls.MPIOpenMP, Workload: "constant:n=2048", Seed: 987654321,
}

// TestAllocGates pins the exact heap allocations of the per-cell codec
// work every served cell pays: hashing its config, decoding it, and each
// enum codec on its own. Allocation counts are deterministic, so a change
// in either direction is a change to explain, not noise.
func TestAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes escape analysis and allocation counts")
	}
	js, err := json.Marshal(allocGateCell)
	if err != nil {
		t.Fatal(err)
	}
	var (
		hash string
		cfg  hdls.Config
		out  []byte
		tech dls.Technique
		ap   hdls.Approach
		app  hdls.App
	)
	techName, techDashed := []byte(`"GSS"`), []byte(`"AWF-B"`)
	apName, appName := []byte(`"MPI+OpenMP"`), []byte(`"PSIA"`)
	for _, g := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"Config.Hash", 10, func() error { hash = allocGateCell.Hash(); return nil }},
		{"json.Unmarshal one Config", 13, func() error { cfg = hdls.Config{}; return json.Unmarshal(js, &cfg) }},
		{"Technique.MarshalJSON", 1, func() (err error) { out, err = dls.AWFB.MarshalJSON(); return err }},
		{"Technique.UnmarshalJSON", 1, func() error { return tech.UnmarshalJSON(techName) }},
		{"Technique.UnmarshalJSON dashed", 2, func() error { return tech.UnmarshalJSON(techDashed) }},
		{"Approach.MarshalJSON", 1, func() (err error) { out, err = hdls.MPIOpenMPNoWait.MarshalJSON(); return err }},
		{"Approach.UnmarshalJSON", 4, func() error { return ap.UnmarshalJSON(apName) }},
		{"App.MarshalJSON", 1, func() (err error) { out, err = hdls.PSIA.MarshalJSON(); return err }},
		{"App.UnmarshalJSON", 2, func() error { return app.UnmarshalJSON(appName) }},
	} {
		if err := g.fn(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { g.fn() }); got != g.want {
			t.Errorf("%s: %v allocations per call, want %v", g.name, got, g.want)
		}
	}
	_, _ = hash, out
}
