package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// inProcess launches daemons as in-process servers behind httptest, with
// wrap (if set) around each serving daemon's handler. Listen addresses
// are httptest's own, so the fleet's pinned ports are not used.
func inProcess(wrap func(http.Handler) http.Handler) launcher {
	return func(s daemonSpec) (*daemon, error) {
		var (
			h    http.Handler
			stop func() error
		)
		if s.coordinator {
			c, err := fleet.New(fleet.Options{Workers: s.peers})
			if err != nil {
				return nil, err
			}
			h, stop = c.Handler(), func() error { c.Close(); return nil }
		} else {
			srv, err := serve.NewWithError(serve.Options{Workers: s.workers, CacheEntries: s.cache, CacheDir: s.cacheDir})
			if err != nil {
				return nil, err
			}
			h = srv.Handler()
			if wrap != nil {
				h = wrap(h)
			}
			stop = func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				return srv.Drain(ctx)
			}
		}
		ts := httptest.NewServer(h)
		return &daemon{url: ts.URL, stop: func() error {
			err := stop()
			ts.Close()
			return err
		}}, nil
	}
}

func testEnv(t *testing.T, l launcher, tr *tracer, log io.Writer) *env {
	return &env{
		launch:      l,
		scratch:     t.TempDir(),
		seed:        1,
		dur:         300 * time.Millisecond,
		tr:          tr,
		http:        newHTTPClient(),
		log:         log,
		hostRef:     func() time.Duration { return refNominal },
		maxSegments: 1,
	}
}

func findWorkload(t *testing.T, name string) workloadInfo {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return workloadInfo{}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricPrinted runs each workload briefly against in-process
// daemons and checks that every name BENCHMARK.json declares is printed
// with its unit, and that the file and the code declare the same
// workloads and metrics.
func TestEveryMetricPrinted(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ name, unit, better string }
	var fileE2E, fileLayer []decl
	for _, m := range spec.EndToEnd {
		fileE2E = append(fileE2E, decl{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		fileLayer = append(fileLayer, decl{m.Name, m.Unit, m.Better})
	}
	var codeE2E, codeLayer []decl
	for _, m := range endToEnd {
		codeE2E = append(codeE2E, decl{m.name, m.unit, m.better})
	}
	for _, m := range perLayer {
		codeLayer = append(codeLayer, decl{m.name, m.unit, m.better})
	}
	if fmt.Sprint(fileE2E) != fmt.Sprint(codeE2E) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code declares %v", fileE2E, codeE2E)
	}
	if fmt.Sprint(fileLayer) != fmt.Sprint(codeLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, code declares %v", fileLayer, codeLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), code %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	check := func(t *testing.T, out string, workload string, defs []metricDef) {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
			}
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(workload+" "+d.name) + ` -?[0-9.]+ ` + regexp.QuoteMeta(d.unit) + `$`)
			if !re.MatchString(out) {
				t.Errorf("%s: no line for %s in %s", workload, d.name, d.unit)
			}
		}
	}
	run := func(t *testing.T, name string, tr *tracer) {
		var log bytes.Buffer
		e := testEnv(t, inProcess(nil), tr, &log)
		res, err := e.runWorkload(findWorkload(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("correct=%t failed=%d attempted=%d; log:\n%s", res.Correct, res.Failed, res.Attempted, log.String())
		}
		var out bytes.Buffer
		printResult(&out, res)
		defs := endToEnd
		if tr != nil {
			defs = perLayer
		}
		check(t, out.String(), name, defs)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { run(t, w.name, nil) })
	}
	// Traced runs of the two cheapest workloads cover every per-layer
	// metric, the fleet's included.
	for _, name := range []string{"small-cells", "fleet-small"} {
		t.Run(name+"/trace", func(t *testing.T) { run(t, name, &tracer{}) })
	}
}

// flipAfter is how many cell lines pass unchanged before one is flipped:
// more than the set-up starts send, so the flip lands in the measured pass.
const flipAfter = 200

// flipWriter passes a sweep stream through, corrupting the first line
// after flipAfter that flip selects.
type flipWriter struct {
	http.ResponseWriter
	flip    func(line []byte) []byte
	lines   *atomic.Int64
	flipped *atomic.Bool
}

func (w *flipWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(`{"index":`)) && w.lines.Add(1) > flipAfter && !w.flipped.Load() {
		if q := w.flip(p); q != nil && w.flipped.CompareAndSwap(false, true) {
			if _, err := w.ResponseWriter.Write(q); err != nil {
				return 0, err
			}
			return len(p), nil
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *flipWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestOracleCatchesFlippedByte serves small-cells with one byte of one
// line flipped and checks the run fails, naming workload, sweep and cell.
func TestOracleCatchesFlippedByte(t *testing.T) {
	hashAt := func(line []byte) int { return bytes.Index(line, []byte(`"hash":"`)) + len(`"hash":"`) }
	cases := []struct {
		name string
		flip func(line []byte) []byte
		want string
	}{
		{"hash", func(line []byte) []byte {
			q := bytes.Clone(line)
			q[hashAt(q)] ^= 1
			return q
		}, "hash is not Config.Hash"},
		{"summary", func(line []byte) []byte {
			// Only a sampled line is recomputed, so corrupt the first one.
			at := hashAt(line)
			if !sampled(string(line[at : at+64])) {
				return nil
			}
			q := bytes.Clone(line)
			i := bytes.Index(q, []byte(`"summary":{"parallel_time":`)) + len(`"summary":{"parallel_time":`)
			q[i] ^= 1 // a different digit
			return q
		}, "served line differs from in-process RunSummary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				lines   atomic.Int64
				flipped atomic.Bool
			)
			wrap := func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					h.ServeHTTP(&flipWriter{ResponseWriter: w, flip: tc.flip, lines: &lines, flipped: &flipped}, r)
				})
			}
			var log bytes.Buffer
			e := testEnv(t, inProcess(wrap), nil, &log)
			res, err := e.runWorkload(findWorkload(t, "small-cells"))
			if err != nil {
				t.Fatal(err)
			}
			if !flipped.Load() {
				t.Fatal("no line was flipped")
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("oracle passed a flipped line: correct=%t failed=%d", res.Correct, res.Failed)
			}
			if !strings.Contains(log.String(), tc.want) ||
				!regexp.MustCompile(`oracle: small-cells sweep \d+ cell \d+: `).MatchString(log.String()) {
				t.Errorf("failure report does not name workload, sweep and cell with %q:\n%s", tc.want, log.String())
			}
		})
	}
}

// TestCompareVerdicts checks each verdict of the compare rule on
// constructed runs of a lower-is-better metric with a 10% bound.
func TestCompareVerdicts(t *testing.T) {
	series := func(base float64, jitter ...float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + jitter[i%len(jitter)]
		}
		return out
	}
	baseline := series(100, -1, 0, 1)
	cases := []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", series(100, 1, 0, -1), "unchanged"},
		{"faster", series(80, -1, 0, 1), "improved"},
		{"slower", series(120, -1, 0, 1), "regressed"},
		{"noisy", series(100, -30, 0, 30), "unresolved"},
	}
	for _, tc := range cases {
		if got := compareMetric(baseline, tc.change, true, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}

	// Whole files: ten passing small-cells runs of 20 s on each side, then
	// one change run that failed a cell, then one of another length.
	file := func(seconds float64, failedRun int) string {
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			res := result{Workload: "small-cells", Seed: int64(i), Seconds: seconds, Correct: true, Attempted: 100, Metrics: map[string]float64{}}
			for _, m := range endToEnd {
				res.Metrics[m.name] = 100 + float64(i%3)
			}
			if i == failedRun {
				res.Correct, res.Failed = false, 1
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(js, '\n'))
		}
		path := filepath.Join(t.TempDir(), "runs.ndjson")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	files := []struct {
		name   string
		change string
		code   int
		want   string
	}{
		{"passing", file(20, -1), 0, "unchanged"},
		{"failed cell", file(20, 3), 1, "failed"},
		{"other length", file(5, -1), 1, "runs of different lengths"},
	}
	base := file(20, -1)
	for _, tc := range files {
		var out, errs bytes.Buffer
		code := compareMain([]string{"-root", "..", base, tc.change}, &out, &errs)
		if code != tc.code || !strings.Contains(out.String()+errs.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q; output:\n%s%s", tc.name, code, tc.code, tc.want, out.String(), errs.String())
		}
	}
}
