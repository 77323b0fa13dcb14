package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/serve"
)

// startWorker launches one real hdlsd worker (handler over a TCP server so
// flushing, chunking and connection aborts behave like production).
func startWorker(t *testing.T, opt serve.Options) *httptest.Server {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	s, err := serve.NewWithError(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("worker drain: %v", err)
		}
	})
	return ts
}

// newCoordinator builds a Coordinator over the given workers with
// test-friendly timings; mut tweaks the options before construction. The
// backoff sleep is stubbed to record requested delays without waiting, so
// retry storms resolve in microseconds while the schedule stays checkable.
func newCoordinator(t *testing.T, workers []string, mut func(*Options)) (*Coordinator, *httptest.Server, *[]time.Duration) {
	t.Helper()
	opt := Options{
		Workers:     workers,
		MaxAttempts: 4,
		CellTimeout: 30 * time.Second,
	}
	if mut != nil {
		mut(&opt)
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts, slept
}

// fleetCell is a cheap distinct cell; seeds and techniques vary so a sweep
// spreads across the ring.
func fleetCell(seed int64) hdls.Config {
	inters := []dls.Technique{dls.STATIC, dls.GSS, dls.TSS, dls.FAC2}
	return hdls.Config{
		Nodes: 2, WorkersPerNode: 4, Inter: inters[int(seed)%len(inters)],
		Intra: dls.STATIC, Approach: hdls.MPIMPI, Seed: seed,
		Workload: "constant:n=256",
	}
}

// mixedCells returns n distinct cells of which at least minVictim are
// ring-homed on worker victim. httptest ports differ run to run, so the
// routing is re-derived per run; scanning seeds keeps the guarantee
// deterministic by construction rather than probabilistic.
func mixedCells(t *testing.T, c *Coordinator, n, victim, minVictim int) []hdls.Config {
	t.Helper()
	cells := make([]hdls.Config, 0, n)
	owned := 0
	for seed := int64(1); len(cells) < n; seed++ {
		cfg := fleetCell(seed)
		if c.ring.Owner(cfg.HashKey()) == victim {
			owned++
		}
		cells = append(cells, cfg)
	}
	for seed := int64(10000); owned < minVictim; seed++ {
		if seed > 200000 {
			t.Fatal("could not find enough victim-owned cells")
		}
		cfg := fleetCell(seed)
		if c.ring.Owner(cfg.HashKey()) != victim {
			continue
		}
		for i := range cells {
			if c.ring.Owner(cells[i].HashKey()) != victim {
				cells[i] = cfg
				owned++
				break
			}
		}
	}
	if owned < minVictim {
		t.Fatalf("only %d victim-owned cells, want >= %d", owned, minVictim)
	}
	return cells
}

func postSweep(t *testing.T, url string, cells []hdls.Config) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	// ?stream=1 so a plain worker streams too; the coordinator always does.
	resp, err := http.Post(url+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read sweep body: %v", err)
	}
	return resp, b
}

// expectedStream computes the ground-truth NDJSON body straight from the
// library: hdls.RunSummary is deterministic, so the whole fleet — however
// many workers, retries and re-routes were involved — must reproduce these
// exact bytes.
func expectedStream(t *testing.T, cells []hdls.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, cfg := range cells {
		sum, err := hdls.RunSummary(cfg)
		if err != nil {
			t.Fatalf("ground-truth cell %d: %v", i, err)
		}
		sumJSON, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(serve.CellLine(i, cfg.Hash(), sumJSON))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestFleetSweepByteIdentical is the core acceptance property: a sweep
// through coordinator + 3 workers produces a body byte-identical to both a
// single daemon and the library ground truth.
func TestFleetSweepByteIdentical(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	w3 := startWorker(t, serve.Options{})
	c, ts, _ := newCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, nil)

	cells := make([]hdls.Config, 64)
	for i := range cells {
		cells[i] = fleetCell(int64(i + 1))
	}
	resp, fleetBody := postSweep(t, ts.URL, cells)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep: status %d: %s", resp.StatusCode, fleetBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	single := startWorker(t, serve.Options{Workers: 4})
	sresp, singleBody := postSweep(t, single.URL, cells)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single-daemon sweep: status %d", sresp.StatusCode)
	}
	if !bytes.Equal(fleetBody, singleBody) {
		t.Fatalf("fleet body differs from single daemon:\nfleet:  %.200s\nsingle: %.200s", fleetBody, singleBody)
	}
	if want := expectedStream(t, cells); !bytes.Equal(fleetBody, want) {
		t.Fatal("fleet body differs from library ground truth")
	}

	// The sweep actually sharded: more than one worker saw cells, and the
	// clean path needed no retries.
	owners := map[int]bool{}
	for _, cfg := range cells {
		owners[c.ring.Owner(cfg.HashKey())] = true
	}
	if len(owners) < 2 {
		t.Errorf("64 cells all landed on one worker; ring placement suspect")
	}
	if got := c.retries.Load(); got != 0 {
		t.Errorf("clean sweep recorded %d retries", got)
	}
	if got := c.cells.Load(); got != 64 {
		t.Errorf("merged cell count = %d, want 64", got)
	}
}

// chaosRecoveryCase exercises one injected failure mode on one worker and
// requires the merged response to stay byte-identical anyway.
func chaosRecoveryCase(t *testing.T, chaos string, mut func(*Options)) *Coordinator {
	t.Helper()
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{Chaos: chaos}) // the victim
	w3 := startWorker(t, serve.Options{})
	c, ts, _ := newCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, mut)

	cells := mixedCells(t, c, 24, 1, 4)
	resp, fleetBody := postSweep(t, ts.URL, cells)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep under %q: status %d: %s", chaos, resp.StatusCode, fleetBody)
	}
	if want := expectedStream(t, cells); !bytes.Equal(fleetBody, want) {
		t.Fatalf("sweep under %q not byte-identical to ground truth:\ngot:  %.300s\nwant: %.300s",
			chaos, fleetBody, want)
	}
	if got := c.retries.Load(); got == 0 {
		t.Errorf("chaos %q: recovery involved no retries — injection never fired", chaos)
	}
	return c
}

// TestFleetRecoversFromDrop: the victim severs every connection (the
// closest chaos analogue of a SIGKILLed worker). With a 1-failure breaker
// the victim trips on first contact and its cells re-route to successors.
func TestFleetRecoversFromDrop(t *testing.T) {
	c := chaosRecoveryCase(t, "drop", func(o *Options) {
		o.BreakerFailures = 1
		o.BreakerCooldown = time.Hour
	})
	if got := c.workers[1].breaker.State(); got != BreakerOpen {
		t.Errorf("victim breaker = %v, want open", got)
	}
	if got := c.reroutes.Load(); got == 0 {
		t.Error("no re-routes recorded for a dead worker")
	}
	if got := c.workers[1].breaker.Opens(); got != 1 {
		t.Errorf("victim breaker opens = %d, want 1", got)
	}
}

// TestFleetRecoversFromTruncation: the victim streams one good line then
// aborts mid-body. The coordinator must keep the delivered prefix, re-route
// only the unresolved suffix, and still merge byte-identical output.
func TestFleetRecoversFromTruncation(t *testing.T) {
	c := chaosRecoveryCase(t, "truncate:lines=1,times=1", nil)
	if got := c.streamBreaks.Load(); got == 0 {
		t.Error("truncation did not register as a stream break")
	}
}

// TestFleetRecoversFromInjected500: the victim answers HTTP 500 once; the
// retry (per backoff schedule) succeeds — on the victim or a successor.
func TestFleetRecoversFromInjected500(t *testing.T) {
	chaosRecoveryCase(t, "error:code=500,times=1", nil)
}

// TestFleetRecoversFromDelay: the victim stalls each request beyond the
// per-cell deadline, so the coordinator abandons its streams and re-routes.
func TestFleetRecoversFromDelay(t *testing.T) {
	// Keep the injected stall short: the victim's handler still runs it to
	// completion server-side, and worker teardown waits for that.
	c := chaosRecoveryCase(t, "delay:d=1s", func(o *Options) {
		o.CellTimeout = 100 * time.Millisecond
		o.BreakerFailures = 1
		o.BreakerCooldown = time.Hour
	})
	if got := c.streamBreaks.Load(); got == 0 {
		t.Error("deadline overruns did not register as stream breaks")
	}
}

// TestFleetShedsWhenNoWorkerAvailable: with every breaker open the
// coordinator degrades gracefully — 503 + Retry-After on submissions,
// not-ready on /readyz, and the shed is counted.
func TestFleetShedsWhenNoWorkerAvailable(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	c, ts, _ := newCoordinator(t, []string{w1.URL}, func(o *Options) {
		o.BreakerFailures = 1
		o.BreakerCooldown = time.Hour
	})
	c.workers[0].breaker.Fail() // trip it

	resp, body := postSweep(t, ts.URL, []hdls.Config{fleetCell(1)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep with dead fleet: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 is missing the Retry-After hint")
	}
	if got := c.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %d %s", rresp.StatusCode, b)
	}
	if !bytes.Contains(b, []byte(`"open"`)) {
		t.Errorf("readyz body does not show the open breaker: %s", b)
	}

	// Liveness is unaffected: the coordinator process itself is fine.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with dead fleet: %d, want 200", hresp.StatusCode)
	}
}

// TestProbeRecovery: a tripped breaker recovers through the active health
// probe (the probe is the half-open trial), without sacrificing any sweep
// traffic to an unproven worker.
func TestProbeRecovery(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	c, ts, _ := newCoordinator(t, []string{w1.URL}, func(o *Options) {
		o.BreakerFailures = 1
		o.BreakerCooldown = time.Millisecond
	})
	c.workers[0].breaker.Fail()
	if c.workers[0].breaker.State() == BreakerClosed {
		t.Fatal("breaker did not trip")
	}
	time.Sleep(5 * time.Millisecond) // let the cooldown elapse
	c.ProbeOnce(context.Background())
	if got := c.workers[0].breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if c.probes.Load() == 0 {
		t.Error("probe counter did not move")
	}

	// And the recovered fleet serves again.
	resp, body := postSweep(t, ts.URL, []hdls.Config{fleetCell(1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery sweep: status %d: %s", resp.StatusCode, body)
	}
}

// TestBackoffSchedule pins the retry delay law: attempt k waits
// base·2^(k-1) jittered to [d/2, d), capped at max — and the jitter stream
// is seeded, so two coordinators with the same seed agree.
func TestBackoffSchedule(t *testing.T) {
	mk := func() *Coordinator {
		c, err := New(Options{
			Workers:     []string{"http://unused:1"},
			BackoffBase: 100 * time.Millisecond,
			BackoffMax:  time.Second,
			JitterSeed:  42,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	c1, c2 := mk(), mk()
	for attempt := 1; attempt <= 10; attempt++ {
		d1, d2 := c1.backoff(attempt), c2.backoff(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: seeded jitter diverged (%s vs %s)", attempt, d1, d2)
		}
		ceil := 100 * time.Millisecond
		for i := 1; i < attempt && ceil < time.Second; i++ {
			ceil *= 2
		}
		if ceil > time.Second {
			ceil = time.Second
		}
		if d1 < ceil/2 || d1 >= ceil {
			t.Errorf("attempt %d: backoff %s outside [%s, %s)", attempt, d1, ceil/2, ceil)
		}
	}
}

// TestFleetRunRelay: /v1/run through the coordinator relays the worker
// response verbatim — bodies byte-identical to a direct worker call, cache
// headers preserved, and deterministic routing means the second call hits
// the same worker's cache.
func TestFleetRunRelay(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	_, ts, _ := newCoordinator(t, []string{w1.URL, w2.URL}, nil)

	cfg := fleetCell(7)
	body, _ := json.Marshal(cfg)
	post := func(url string) (*http.Response, []byte) {
		resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp1, b1 := post(ts.URL)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("fleet run: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first fleet run X-Cache = %q, want miss", got)
	}
	if resp1.Header.Get("X-Fleet-Worker") == "" {
		t.Error("X-Fleet-Worker header missing")
	}
	resp2, b2 := post(ts.URL)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second fleet run X-Cache = %q, want hit (routing not sticky?)", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("fleet run bodies not byte-identical across cache hit")
	}

	// Ground truth: a standalone daemon produces the same body.
	single := startWorker(t, serve.Options{})
	_, b3 := post(single.URL)
	if !bytes.Equal(b1, b3) {
		t.Fatalf("fleet run body differs from single daemon:\n%s\n%s", b1, b3)
	}

	// Validation failures are the coordinator's own 400s (no worker hop).
	bad, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"nodes":-3}`))
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := io.ReadAll(bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config through fleet: %d %s", bad.StatusCode, bb)
	}
}

// TestFleetSweepValidation: the coordinator rejects malformed sweeps,
// before any shard is dispatched, with the same 400 body a lone worker
// with the same limits answers.
func TestFleetSweepValidation(t *testing.T) {
	limits := serve.Options{MaxCells: 4}
	lone := startWorker(t, limits)
	_, ts, _ := newCoordinator(t, []string{lone.URL}, func(o *Options) { o.Limits = limits })
	post := func(base, query, body string) (int, []byte) {
		resp, err := http.Post(base+"/v1/sweep"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b
	}
	for _, tc := range []struct{ name, query, body string }{
		{"empty cells", "", `{"cells":[]}`},
		{"unknown field", "", `{"cellz":[]}`},
		{"over max cells", "", `{"cells":[{},{},{},{},{}]}`},
		{"invalid cell", "", `{"cells":[{"nodes":-1}]}`},
		{"malformed timeout", "?timeout=soon", `{"cells":[{}]}`},
		{"trailing garbage", "", `{"cells":[{"nodes":2,"workload":"constant:n=64"}]} garbage`},
		{"second request value", "", `{"cells":[{"nodes":2,"workload":"constant:n=64"}]}{"cells":[]}`},
	} {
		status, b := post(ts.URL, tc.query, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, b)
		}
		if wantStatus, want := post(lone.URL, tc.query, tc.body); wantStatus != status || !bytes.Equal(b, want) {
			t.Errorf("%s: coordinator answered %d %s, a lone worker %d %s", tc.name, status, b, wantStatus, want)
		}
	}
}

// TestFleetMetricsAndDiscovery: the coordinator's /metrics carries the
// fleet counters and per-worker breaker gauge, and discovery endpoints
// proxy through.
func TestFleetMetricsAndDiscovery(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	_, ts, _ := newCoordinator(t, []string{w1.URL}, nil)

	resp, body := postSweep(t, ts.URL, []hdls.Config{fleetCell(3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"hdlsd_fleet_workers 1", "hdlsd_fleet_sweeps_total 1",
		"hdlsd_fleet_cells_total 1", "hdlsd_fleet_retries_total",
		"hdlsd_fleet_reroutes_total", "hdlsd_fleet_breaker_opens_total",
		"hdlsd_fleet_shed_total", "hdlsd_fleet_breaker_state{worker=",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %s", want)
		}
	}

	tresp, err := http.Get(ts.URL + "/v1/techniques")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK || !bytes.Contains(tb, []byte("techniques")) {
		t.Errorf("techniques proxy: %d %s", tresp.StatusCode, tb)
	}
}

// TestStreamShardRejectsUnterminatedFinalLine pins the merge layer's
// NDJSON framing rule: a record is complete only with its newline. The
// fake worker emits cell 0 properly, then a fully parseable record for
// cell 1 whose newline never arrives before the connection closes — the
// signature of a worker dying mid-write. First-wins merging must not
// resolve cell 1 from it; the shard must fail with an unexpected-EOF so
// the cell re-routes.
func TestStreamShardRejectsUnterminatedFinalLine(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Cells []hdls.Config `json:"cells"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Cells) != 2 {
			t.Errorf("fake worker: bad shard request: %v", err)
			return
		}
		line := func(i int) []byte {
			b, _ := json.Marshal(map[string]any{
				"index": i, "hash": req.Cells[i].Hash(),
				"summary": map[string]any{"fake": i},
			})
			return b
		}
		w.Write(line(0))
		w.Write([]byte{'\n'})
		w.Write(line(1)) // complete JSON, no trailing newline
	}))
	defer fake.Close()

	c, err := New(Options{Workers: []string{fake.URL}, CellTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := make([]*cellWork, 2)
	for i := range batch {
		cfg := fleetCell(int64(i + 1))
		batch[i] = &cellWork{index: i, cfg: cfg, hash: cfg.Hash()}
	}
	mg := newMerge(2)
	unresolved, _, err := c.streamShard(context.Background(), 0, batch, "", shardMeta{}, mg)
	if len(unresolved) != 1 || unresolved[0] != batch[1] {
		t.Fatalf("unresolved = %v, want exactly the unterminated cell", unresolved)
	}
	if err == nil || !strings.Contains(err.Error(), "missing its newline") {
		t.Fatalf("shard error = %v, want the unterminated-line rejection", err)
	}
	mg.mu.Lock()
	resolved0, resolved1 := mg.lines[0] != nil, mg.lines[1] != nil
	mg.mu.Unlock()
	if !resolved0 {
		t.Error("the properly terminated cell 0 did not resolve")
	}
	if resolved1 {
		t.Error("cell 1 resolved from a record the worker never finished")
	}
}

// TestFleetRecoversFromUnterminatedLine wires X-Chaos through a
// coordinator sweep: every worker is armed header-only, and the submission
// asks first-attempt shard streams to die right before their second
// line's newline (truncate bytes=-1). The coordinator forwards the header
// on initial placement only, so retries run clean: the merged body must
// stay byte-identical and the truncations must register as stream breaks.
func TestFleetRecoversFromUnterminatedLine(t *testing.T) {
	w1 := startWorker(t, serve.Options{Chaos: "header"})
	w2 := startWorker(t, serve.Options{Chaos: "header"})
	w3 := startWorker(t, serve.Options{Chaos: "header"})
	c, ts, _ := newCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, nil)

	cells := mixedCells(t, c, 24, 1, 4)
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Chaos", "truncate:lines=1,bytes=-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fleetBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep under injected truncation: status %d: %s", resp.StatusCode, fleetBody)
	}
	if want := expectedStream(t, cells); !bytes.Equal(fleetBody, want) {
		t.Fatalf("sweep under injected truncation not byte-identical:\ngot:  %.300s\nwant: %.300s",
			fleetBody, want)
	}
	if got := c.streamBreaks.Load(); got == 0 {
		t.Error("unterminated lines did not register as stream breaks")
	}
	if got := c.retries.Load(); got == 0 {
		t.Error("recovery involved no retries — injection never fired")
	}
}
