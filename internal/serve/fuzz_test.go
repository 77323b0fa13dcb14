package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/dls"
	"repro/hdls"
)

// fuzzLimits are the limits FuzzSweepDecode reads under: small enough
// that validating a cell never builds a big machine model or profile.
var fuzzLimits = Options{MaxCells: 16, MaxNodes: 64, MaxWorkersPerNode: 64, MaxWorkloadN: 1 << 10}

// readResult is everything ReadRequest hands back or writes.
type readResult struct {
	cells  []hdls.Config
	ok     bool
	status int
	body   string
}

// referenceRead is ReadRequest with the strict json.Decoder as its only
// decoder, as it read every body before the plain fast path, plus the one
// documented change: anything but whitespace after the JSON value is a
// 400.
func referenceRead(o Options, body []byte, sweep bool) readResult {
	rec := httptest.NewRecorder()
	fail := func(format string, args ...any) readResult {
		HTTPError(rec, http.StatusBadRequest, format, args...)
		return readResult{status: rec.Code, body: rec.Body.String()}
	}
	o = o.withDefaults()
	src := bytes.NewReader(body)
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	trailing := func() bool {
		rest, _ := io.ReadAll(io.MultiReader(dec.Buffered(), src))
		return len(bytes.TrimLeft(rest, " \t\r\n")) > 0
	}
	var cells []hdls.Config
	if sweep {
		var req sweepRequest
		if err := dec.Decode(&req); err != nil {
			return fail("invalid sweep request: %v", err)
		}
		if trailing() {
			return fail("invalid sweep request: %v", errTrailingData)
		}
		if len(req.Cells) == 0 {
			return fail("sweep needs at least one cell")
		}
		if len(req.Cells) > o.MaxCells {
			return fail("sweep of %d cells exceeds the %d-cell limit", len(req.Cells), o.MaxCells)
		}
		for i, cfg := range req.Cells {
			if err := o.CheckCell(cfg); err != nil {
				return fail("cell %d: %v", i, err)
			}
		}
		cells = req.Cells
	} else {
		cells = make([]hdls.Config, 1)
		if err := dec.Decode(&cells[0]); err != nil {
			return fail("invalid config: %v", err)
		}
		if trailing() {
			return fail("invalid config: %v", errTrailingData)
		}
		if err := o.CheckCell(cells[0]); err != nil {
			return fail("%v", err)
		}
	}
	return readResult{cells: cells, ok: true, status: rec.Code}
}

// readThrough runs ReadRequest on body: with its Content-Length known, so
// a plain sweep takes the fast path, or streamed a byte at a time with no
// length, so every body goes through the decoder.
func readThrough(o Options, body []byte, sweep, streamed bool) readResult {
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil)
	req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	if streamed {
		req.Body, req.ContentLength = io.NopCloser(iotest.OneByteReader(bytes.NewReader(body))), -1
	}
	rec := httptest.NewRecorder()
	cells, _, ok := o.ReadRequest(rec, req, sweep)
	return readResult{cells: cells, ok: ok, status: rec.Code, body: rec.Body.String()}
}

// fuzzAffordable reports whether every cell that body could decode to is
// cheap to validate: app-profile cells only at the memoized default and
// grid scales, no paper-kernel workload specs (each new scale builds and
// keeps a profile), and topologies of at most 64 entries and 1024 cores.
// fuzzLimits bound the rest before validation runs.
func fuzzAffordable(body []byte) bool {
	var req sweepRequest
	var one hdls.Config
	_ = json.Unmarshal(body, &req) // a body that does not decode validates nothing
	_ = json.Unmarshal(body, &one)
	for _, c := range append(req.Cells, one) {
		if len(c.Topology.NodeSpeeds) > 64 || len(c.Topology.NodeCores) > 64 {
			return false
		}
		for _, cores := range c.Topology.NodeCores {
			if cores > 1024 {
				return false
			}
		}
		w := strings.ToLower(c.Workload)
		if strings.Contains(w, "mandel") || strings.Contains(w, "psia") || strings.Contains(w, "spin") {
			return false
		}
		if w == "" && c.Scale != 0 && c.Scale != 8 && c.Scale != 64 {
			return false
		}
	}
	return true
}

// fuzzSweepSeeds are FuzzSweepDecode's seed bodies: sweeps shaped like
// the benchmark's, every malformed body of the serve and fleet tests, and
// the inputs where a plain decoder could part from json.Decoder.
func fuzzSweepSeeds(f *testing.F) []string {
	cellJSON := func(c hdls.Config) string {
		js, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		return string(js)
	}
	sweepOf := func(cells ...string) string { return `{"cells":[` + strings.Join(cells, ",") + `]}` }
	inters := []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}
	var small, grid []string
	for i := 0; i < 16; i++ {
		ap := hdls.MPIMPI
		if i%2 == 1 {
			ap = hdls.MPIOpenMP
		}
		small = append(small, cellJSON(hdls.Config{
			Nodes: 2, WorkersPerNode: 4, Inter: inters[i%4], Intra: dls.GSS, Approach: ap,
			Workload: "constant:n=2048", Seed: 0x5deece66d * int64(i+1),
		}))
		grid = append(grid, cellJSON(hdls.Config{
			App: hdls.App(i % 2), Nodes: 2 << (i % 4), Inter: inters[i%4], Intra: hdls.FigureIntras[i%5],
			Approach: ap, Scale: 64, Seed: int64(i + 1),
		}))
	}
	seeds := []string{
		sweepOf(small[:4]...), sweepOf(small...), sweepOf(grid[:8]...), small[0], grid[1],
		"{ \"cells\" :\n[ " + small[0] + " ,\t" + small[1] + " ]\r\n}\n",
		// The serve and fleet tests' malformed bodies.
		`{"cells":[]}`, `{}`, `{"cellz":[]}`, `{"cells":[{},{},{},{},{}]}`,
		`{"cells":[{"nodes":2},{"nodes":-1}]}`, `{"cells":[{"nodes":-1}]}`, `{"cells":[{}]}`,
		`{"cells":[{"nodes":2,"workload":"constant:n=64"}]} garbage`,
		`{"cells":[{"nodes":2,"workload":"constant:n=64"}]}{"cells":[]}`,
		`{"nodes":`, `{"nodez":4}`, `{"inter":"BOGUS"}`, `{"inter":17}`, `{"nodes":-3}`,
		`{"workload":"gaussian:n=-5"}`, `{"inter":"GSS","intra":"TSS","approach":"MPI+OpenMP"}`,
		`{"approach":"MPI+PVM"}`, `{"nodes":1000000000}`, `{"workers_per_node":1000000000}`,
		`{"nodes":4096,"workers_per_node":4096}`, `{"workload":"constant:n=2000000000"}`,
		`{"nodes":2,"workers_per_node":4,"workload":"constant:n=64"} x`,
		// Escaped keys and values, case variants, duplicates.
		`{"cells":[{"\u006eodes":2}]}`, `{"\u0063ells":[{}]}`, `{"cells":[{"inter":"\u0047SS"}]}`,
		`{"cells":[{"workload":"constant:n=\u0036\u0034"}]}`, `{"cells":[{"workload":"constant:n=64\t"}]}`,
		`{"Cells":[{"nodes":2}]}`, `{"CELLS":[{}]}`, `{"cells":[{"Nodes":2}]}`, `{"cells":[{"INTER":"gss"}]}`,
		`{"cells":[{"inter":"gss","intra":"Awf-B","approach":"mpi-openmp","app":"psia"}]}`,
		`{"cells":[{"nodes":2,"nodes":3}]}`, `{"cells":[{"inter":"GSS","inter":"BOGUS"}]}`,
		`{"cells":[{"inter":"BOGUS","inter":"GSS"}]}`, `{"cells":[{"nodes":"x","nodes":2}]}`,
		`{"cells":[{"nodes":2,"seed":5},{"seed":6}],"cells":[{"seed":7}]}`, `{"cells":[{}],"cellz":1}`,
		// null and values of the wrong kind.
		`null`, `{"cells":null}`, `{"cells":[null]}`, `{"cells":[{"nodes":null}]}`,
		`{"cells":[{"inter":null}]}`, `{"cells":[{"workload":null}]}`, `{"cells":{}}`, `[]`, `""`,
		`{"cells":[{"extended_runtime":true,"collect_trace":false}]}`, `{"cells":[{"extended_runtime":"true"}]}`,
		`{"cells":[{"extended_runtime":1}]}`, `{"cells":[{"workload":64}]}`, `{"cells":[{"app":1}]}`,
		`{"cells":[{"nodes":true}]}`, `{"cells":[{"noise_cv":"0.1"}]}`, `{"cells":[{"app":"é"}]}`,
		`{"cells":[{"workload":"constant:n=64é"}]}`, "{\"cells\":[{\"workload\":\"\xff\"}]}",
		// Integers out of range or not integers.
		`{"cells":[{"seed":9223372036854775807}]}`, `{"cells":[{"seed":9223372036854775808}]}`,
		`{"cells":[{"seed":-9223372036854775808}]}`, `{"cells":[{"seed":-9223372036854775809}]}`,
		`{"cells":[{"nodes":2.0}]}`, `{"cells":[{"nodes":2e0}]}`, `{"cells":[{"nodes":-0}]}`,
		`{"cells":[{"nodes":02}]}`, `{"cells":[{"nodes":+2}]}`, `{"cells":[{"nodes":-}]}`,
		// Floats at and around the 1e-6 and 1e21 format switches.
		`{"cells":[{"noise_cv":1e-6}]}`, `{"cells":[{"noise_cv":9.99e-7}]}`, `{"cells":[{"noise_cv":0.000001}]}`,
		`{"cells":[{"noise_cv":1e21}]}`, `{"cells":[{"noise_cv":999999999999999999999}]}`,
		`{"cells":[{"noise_cv":1e20}]}`, `{"cells":[{"noise_cv":1E-7}]}`, `{"cells":[{"noise_cv":1e+2}]}`,
		`{"cells":[{"noise_cv":-0}]}`, `{"cells":[{"noise_cv":0.0}]}`, `{"cells":[{"noise_cv":1e400}]}`,
		`{"cells":[{"noise_cv":1e-400}]}`, `{"cells":[{"noise_cv":.5}]}`, `{"cells":[{"noise_cv":1.}]}`,
		`{"cells":[{"noise_cv":0.05,"nodes":2,"workers_per_node":4,"workload":"constant:n=64"}]}`,
		// Nested sections.
		`{"cells":[{"topology":{"node_speeds":[1,0.5],"node_cores":[16,8]},"nodes":2}]}`,
		`{"cells":[{"perturbation":{"noise_cv":0.1,"slowdown_rate":2,"slowdown_factor":3,"slowdown_duration":0.01}}]}`,
		`{"cells":[{"topology":{}}]}`, `{"cells":[{"topology":null}]}`, `{"cells":[{"nodes":{"n":2}}]}`,
		// Trailing bytes.
		`{"cells":[{}]}` + "\n", `{"cells":[{}]} ` + "\t\r\n", `{"cells":[{}]}]`, `{"cells":[{}]}}`,
		`{"cells":[{}]},`, `{"cells":[{}]} {}`, `{"cells":[{}]}` + "\x00", `{} x`, `{}` + "\n",
		`{"cells":[{},]}`, `{"cells":[{}]`, `{"cells":[{}`, `{"cells":[{"nodes":2`, ``, ` `,
	}
	return seeds
}

// FuzzSweepDecode holds ReadRequest, whose plain bodies skip
// encoding/json's reflection, to referenceRead for any body, read as a
// sweep and as a run, with its length known and streamed: the same cells,
// status and 400 body.
func FuzzSweepDecode(f *testing.F) {
	for _, s := range fuzzSweepSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !fuzzAffordable(body) {
			return
		}
		for _, sweep := range []bool{true, false} {
			want := referenceRead(fuzzLimits, body, sweep)
			for _, streamed := range []bool{false, true} {
				if got := readThrough(fuzzLimits, body, sweep, streamed); !reflect.DeepEqual(got, want) {
					t.Fatalf("sweep %v, streamed %v, body %q:\n got %+v\nwant %+v", sweep, streamed, body, got, want)
				}
			}
		}
	})
}
