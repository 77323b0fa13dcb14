package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/castore"
)

// newMemStore opens a memory-only tiered store for manager-level tests.
func newMemStore(t *testing.T, entries int) *castore.Store {
	t.Helper()
	st, err := castore.Open(castore.Options{MemEntries: entries})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

// newTestServer starts a real HTTP server (flushing works through the
// network stack) and registers cleanup for both it and the worker pool.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s, ts
}

// cheapCell is a fast-to-simulate cell used throughout the tests.
func cheapCell(seed int64, inter dls.Technique) hdls.Config {
	return hdls.Config{
		Nodes: 2, WorkersPerNode: 4, Inter: inter, Intra: dls.STATIC,
		Approach: hdls.MPIMPI, Seed: seed, Workload: "constant:n=256",
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return body
}

func TestRunValidation400s(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"nodes":`},
		{"unknown field", `{"nodez":4}`},
		{"unknown technique", `{"inter":"BOGUS"}`},
		{"technique not a string", `{"inter":17}`},
		{"negative nodes", `{"nodes":-3}`},
		{"bad workload spec", `{"workload":"gaussian:n=-5"}`},
		{"unsupported intra under openmp", `{"inter":"GSS","intra":"TSS","approach":"MPI+OpenMP"}`},
		{"unknown approach", `{"approach":"MPI+PVM"}`},
		// Size limits fire before any request-sized allocation.
		{"nodes over limit", `{"nodes":1000000000}`},
		{"workers over limit", `{"workers_per_node":1000000000}`},
		{"node x worker product over limit", `{"nodes":4096,"workers_per_node":4096}`},
		{"workload n over limit", `{"workload":"constant:n=2000000000"}`},
		{"trailing data", `{"nodes":2,"workers_per_node":4,"workload":"constant:n=64"} x`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON {error}: %s", body)
			}
		})
	}

	// The paper's runtime constraint lifts with extended_runtime.
	resp := postJSON(t, ts.URL+"/v1/run", map[string]any{
		"inter": "GSS", "intra": "TSS", "approach": "MPI+OpenMP",
		"extended_runtime": true, "workload": "constant:n=256",
		"nodes": 2, "workers_per_node": 4,
	})
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("extended TSS cell: status %d, body %s", resp.StatusCode, body)
	}
}

func TestRunCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cfg := cheapCell(7, dls.GSS)

	resp1 := postJSON(t, ts.URL+"/v1/run", cfg)
	body1 := readBody(t, resp1)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d body %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first run X-Cache = %q, want miss", got)
	}

	resp2 := postJSON(t, ts.URL+"/v1/run", cfg)
	body2 := readBody(t, resp2)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs:\n%s\n%s", body1, body2)
	}

	var out struct {
		Hash    string       `json:"hash"`
		Summary hdls.Summary `json:"summary"`
	}
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatalf("response not {hash, summary}: %v\n%s", err, body1)
	}
	if out.Hash != cfg.Hash() {
		t.Errorf("hash = %s, want %s", out.Hash, cfg.Hash())
	}
	if out.Summary.ParallelTime <= 0 || out.Summary.Workers != 8 {
		t.Errorf("implausible summary: %+v", out.Summary)
	}

	// A different seed is a different canonical config: must miss.
	resp3 := postJSON(t, ts.URL+"/v1/run", cheapCell(8, dls.GSS))
	readBody(t, resp3)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different seed X-Cache = %q, want miss", got)
	}
}

// sweepBody builds a 16-cell request spanning techniques and seeds.
func sweepBody(n int) map[string]any {
	inters := []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}
	cells := make([]hdls.Config, n)
	for i := range cells {
		cells[i] = cheapCell(int64(100+i/len(inters)), inters[i%len(inters)])
	}
	return map[string]any{"cells": cells}
}

// parseNDJSON decodes a stream body into per-line envelopes.
func parseNDJSON(t *testing.T, body []byte) []struct {
	Index   int             `json:"index"`
	Hash    string          `json:"hash"`
	Summary json.RawMessage `json:"summary"`
	Error   string          `json:"error"`
} {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	out := make([]struct {
		Index   int             `json:"index"`
		Hash    string          `json:"hash"`
		Summary json.RawMessage `json:"summary"`
		Error   string          `json:"error"`
	}, len(lines))
	for i, ln := range lines {
		if err := json.Unmarshal(ln, &out[i]); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
	}
	return out
}

func TestSweepStreamSixteenCells(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := sweepBody(16)

	resp := postJSON(t, ts.URL+"/v1/sweep?stream=1", req)
	body1 := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body1)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	cells := parseNDJSON(t, body1)
	if len(cells) != 16 {
		t.Fatalf("got %d NDJSON lines, want 16", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("line %d has index %d: stream must be in cell order", i, c.Index)
		}
		if c.Error != "" || len(c.Summary) == 0 {
			t.Fatalf("cell %d: error=%q summary=%s", i, c.Error, c.Summary)
		}
	}

	// The identical sweep replays from cache, byte for byte.
	resp2 := postJSON(t, ts.URL+"/v1/sweep?stream=1", req)
	body2 := readBody(t, resp2)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat sweep not byte-identical:\n%s\n%s", body1, body2)
	}

	// The repeat touched the engine for zero cells.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, mresp))
	if !strings.Contains(metrics, "hdlsd_cells_cached_total 16") {
		t.Errorf("metrics missing 16 cached cells:\n%s", metrics)
	}
}

func TestSweepAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})

	// An explicit stream=0 opts out of streaming: still the async 202.
	resp := postJSON(t, ts.URL+"/v1/sweep?stream=0", sweepBody(8))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		JobID      string `json:"job_id"`
		Cells      int    `json:"cells"`
		StatusURL  string `json:"status_url"`
		ResultsURL string `json:"results_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.JobID == "" {
		t.Fatalf("bad 202 body: %v %s", err, body)
	}
	if acc.Cells != 8 {
		t.Errorf("cells = %d, want 8", acc.Cells)
	}

	// The results stream blocks until cells complete, in order.
	rresp, err := http.Get(ts.URL + acc.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	lines := parseNDJSON(t, readBody(t, rresp))
	if len(lines) != 8 {
		t.Fatalf("results: %d lines, want 8", len(lines))
	}

	// Status reflects completion; replaying results is identical.
	sresp, err := http.Get(ts.URL + acc.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Status    string `json:"status"`
		Completed int    `json:"completed"`
		Failed    int    `json:"failed"`
	}
	if err := json.Unmarshal(readBody(t, sresp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.Completed != 8 || st.Failed != 0 {
		t.Errorf("status = %+v, want done/8/0", st)
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else if readBody(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

func TestSweepRejectsBadBatches(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCells: 4})
	for name, body := range map[string]string{
		"empty cells":    `{"cells":[]}`,
		"missing cells":  `{}`,
		"unknown field":  `{"cellz":[]}`,
		"over max cells": `{"cells":[{},{},{},{},{}]}`,
		"invalid cell":   `{"cells":[{"nodes":2},{"nodes":-1}]}`,
		// Trailing data after the request value fails the whole request.
		"trailing garbage":     `{"cells":[{"nodes":2,"workload":"constant:n=64"}]} garbage`,
		"second request value": `{"cells":[{"nodes":2,"workload":"constant:n=64"}]}{"cells":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if b := readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, b)
		}
	}
}

// TestConcurrentSweeps drives ≥8 simultaneous sweep requests through the
// pooled-arena path; -race in CI makes this the contention smoke the
// acceptance criteria require. Identical request bodies must produce
// identical response bodies regardless of interleaving.
func TestConcurrentSweeps(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	const clients = 8
	req, err := json.Marshal(sweepBody(12))
	if err != nil {
		t.Fatal(err)
	}

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(req))
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- fmt.Errorf("client %d read: %v", c, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
				return
			}
			bodies[c] = body
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := 1; c < clients; c++ {
		if !bytes.Equal(bodies[0], bodies[c]) {
			t.Fatalf("client %d body differs from client 0", c)
		}
	}
	if got := len(parseNDJSON(t, bodies[0])); got != 12 {
		t.Fatalf("got %d lines, want 12", got)
	}
}

func TestDiscoveryAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/techniques")
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Techniques []struct {
			Name          string `json:"name"`
			Adaptive      bool   `json:"adaptive"`
			InterOK       bool   `json:"inter_ok"`
			IntraOK       bool   `json:"intra_ok"`
			IntraOpenMPOK bool   `json:"intra_openmp_ok"`
		} `json:"techniques"`
	}
	if err := json.Unmarshal(readBody(t, resp), &tl); err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{}
	for _, ti := range tl.Techniques {
		byName[ti.Name] = true
		switch ti.Name {
		case "GSS":
			if !ti.InterOK || !ti.IntraOK || !ti.IntraOpenMPOK {
				t.Errorf("GSS should be valid everywhere: %+v", ti)
			}
		case "TSS":
			// The paper's Intel-runtime constraint: fine under MPI+MPI,
			// unavailable as a stock OpenMP schedule.
			if !ti.IntraOK || ti.IntraOpenMPOK {
				t.Errorf("TSS should be MPI+MPI-only at the intra level: %+v", ti)
			}
		case "AWF-B":
			if !ti.Adaptive || ti.IntraOK {
				t.Errorf("AWF-B should be adaptive and intra-unsupported: %+v", ti)
			}
		}
	}
	if len(byName) != len(dls.All()) {
		t.Errorf("techniques lists %d entries, want %d", len(byName), len(dls.All()))
	}

	resp, err = http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Apps  []string `json:"apps"`
		Specs []struct {
			Name    string `json:"name"`
			Example string `json:"example"`
		} `json:"specs"`
	}
	if err := json.Unmarshal(readBody(t, resp), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Apps) != 2 || len(wl.Specs) < 10 {
		t.Errorf("workloads: %d apps, %d specs", len(wl.Apps), len(wl.Specs))
	}
	// Every advertised example must actually validate.
	for _, sp := range wl.Specs {
		cfg := hdls.Config{Workload: sp.Example}
		if err := cfg.Validate(); err != nil {
			t.Errorf("example %q does not validate: %v", sp.Example, err)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if b := readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", resp.StatusCode, b)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	for _, want := range []string{
		"hdlsd_cells_total", "hdlsd_cache_hits_total", "hdlsd_queue_depth",
		"hdlsd_cells_per_second", "hdlsd_arena_reuses_total", "hdlsd_draining 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestEvictionDefersForInFlightReplay pins the retention rule behind
// Manager.Acquire: a completed job being replayed must survive TTL and
// count-cap eviction until its last reader releases, then get collected
// on a later janitor tick. Concurrent replay readers hammer WaitCell
// while the janitor ticks past the TTL, so the race detector covers the
// pin/evict interaction too (run under -race -count=10 in CI's hdlsd job).
func TestEvictionDefersForInFlightReplay(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueCapacity: 64, JobTTL: 25 * time.Millisecond, RetainedJobs: 2, Store: newMemStore(t, 16)})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	job, err := m.Submit([]hdls.Config{cheapCell(1, dls.GSS)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.WaitCell(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	j, release, ok := m.Acquire(job.ID)
	if !ok {
		t.Fatal("completed job not addressable")
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if _, err := j.WaitCell(context.Background(), 0); err != nil {
					t.Errorf("replay read: %v", err)
					return
				}
			}
		}()
	}

	// Count-cap pressure: with maxJobs=2, these completions push the
	// pinned job past the cap on every evictLocked run.
	for i := 0; i < 4; i++ {
		other, err := m.Submit([]hdls.Config{cheapCell(int64(i+10), dls.GSS)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.WaitCell(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	// TTL pressure: several 10ms janitor ticks past the 25ms TTL.
	time.Sleep(120 * time.Millisecond)
	if _, ok := m.Job(job.ID); !ok {
		t.Fatal("pinned job evicted while a replay was in flight")
	}
	wg.Wait()
	release()
	release() // idempotent: a double release must not underflow the pin

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Job(job.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("released job never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
