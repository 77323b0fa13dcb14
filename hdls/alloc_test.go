package hdls_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/dls"
	"repro/hdls"
	"repro/internal/serve"
)

// allocGateCell is the cell of the allocation gates: the benchmark's
// small-cell shape, with every enum field set.
var allocGateCell = hdls.Config{
	Nodes: 2, WorkersPerNode: 4, Inter: dls.FAC2, Intra: dls.GSS,
	Approach: hdls.MPIOpenMP, Workload: "constant:n=2048", Seed: 987654321,
}

// replaySweepBody is a request body shaped like the benchmark's replay-mix
// sweeps: 16 small cells, each encoded by json.Marshal, inters rotating
// and approaches alternating, with large fresh seeds.
func replaySweepBody(t *testing.T) []byte {
	inters := []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}
	body := []byte(`{"cells":[`)
	for i := 0; i < 16; i++ {
		c := allocGateCell
		c.Inter, c.Approach, c.Seed = inters[i%len(inters)], hdls.MPIMPI, 0x5deece66d*int64(i+1)
		if i%2 == 1 {
			c.Approach = hdls.MPIOpenMP
		}
		js, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, js...)
	}
	return append(body, "]}"...)
}

// TestAllocGates pins the exact heap allocations of the per-cell codec
// work every served cell pays: hashing its config, decoding it, and each
// enum codec on its own, and those of reading a replay-mix sweep through
// serve's request reader, whose count only the plain decoder reaches.
// Allocation counts are deterministic, so a change in either direction is
// a change to explain, not noise.
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
	body := replaySweepBody(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep?stream=1", nil)
	req.ContentLength = int64(len(body))
	rec := httptest.NewRecorder()
	readSweep := func() error {
		req.Body = io.NopCloser(bytes.NewReader(body))
		if cells, _, ok := (serve.Options{}).ReadRequest(rec, req, true); !ok || len(cells) != 16 {
			return errors.New(rec.Body.String())
		}
		return nil
	}
	techName, techDashed := []byte(`"GSS"`), []byte(`"AWF-B"`)
	apName, appName := []byte(`"MPI+OpenMP"`), []byte(`"PSIA"`)
	for _, g := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"Config.Hash", 5, func() error { hash = allocGateCell.Hash(); return nil }},
		{"json.Unmarshal one Config", 13, func() error { cfg = hdls.Config{}; return json.Unmarshal(js, &cfg) }},
		{"Technique.MarshalJSON", 1, func() (err error) { out, err = dls.AWFB.MarshalJSON(); return err }},
		{"Technique.UnmarshalJSON", 1, func() error { return tech.UnmarshalJSON(techName) }},
		{"Technique.UnmarshalJSON dashed", 2, func() error { return tech.UnmarshalJSON(techDashed) }},
		{"Approach.MarshalJSON", 1, func() (err error) { out, err = hdls.MPIOpenMPNoWait.MarshalJSON(); return err }},
		{"Approach.UnmarshalJSON", 4, func() error { return ap.UnmarshalJSON(apName) }},
		{"App.MarshalJSON", 1, func() (err error) { out, err = hdls.PSIA.MarshalJSON(); return err }},
		{"App.UnmarshalJSON", 2, func() error { return app.UnmarshalJSON(appName) }},
		{"serve ReadRequest of a 16-cell replay sweep", 152, readSweep},
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
