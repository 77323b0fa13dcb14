package serve

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
	"strings"
	"testing"
	"time"

	"repro/dls"
	"repro/hdls"
)

// slowCells builds a batch big enough that its job stays active while a
// test makes admission assertions; callers cancel the submission context
// afterwards so the tail is skipped instead of simulated.
func slowCells(n int) []hdls.Config {
	cells := make([]hdls.Config, n)
	for i := range cells {
		cells[i] = hdls.Config{
			Nodes: 2, WorkersPerNode: 4, Inter: dls.GSS, Intra: dls.STATIC,
			Approach: hdls.MPIMPI, Seed: int64(i + 1), Workload: "constant:n=1048576",
		}
	}
	return cells
}

// TestAdmissionControlSheds pins the admission policy at the manager:
// submissions beyond MaxActiveJobs shed with ErrOverloaded, a client at
// its MaxJobsPerClient cap sheds with ErrClientBusy while other clients
// still get in, sheds are counted, and a client's slot frees once its job
// completes. Shedding is the explicit alternative to silent queuing: a
// 202 the daemon cannot back with capacity is a lie.
func TestAdmissionControlSheds(t *testing.T) {
	m := NewManager(ManagerConfig{
		Workers: 1, QueueCapacity: 256, JobTTL: time.Minute, RetainedJobs: 8,
		MaxActiveJobs: 2, MaxJobsPerClient: 1, Store: newMemStore(t, 64),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j1, err := m.SubmitWith(ctx, slowCells(32), SubmitOpts{Client: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitWith(ctx, slowCells(1), SubmitOpts{Client: "alice"}); err != ErrClientBusy {
		t.Fatalf("second alice submission: err = %v, want ErrClientBusy", err)
	}
	j2, err := m.SubmitWith(ctx, slowCells(1), SubmitOpts{Client: "bob"})
	if err != nil {
		t.Fatalf("bob under the active limit: %v", err)
	}
	// Two jobs active: the global bound now sheds even a fresh client.
	if _, err := m.SubmitWith(ctx, slowCells(1), SubmitOpts{Client: "carol"}); err != ErrOverloaded {
		t.Fatalf("over the active limit: err = %v, want ErrOverloaded", err)
	}
	if shed := m.Stats().JobsShed; shed != 2 {
		t.Errorf("JobsShed = %d, want 2", shed)
	}

	// Completion releases the admission slots: cancel skips the queued
	// tail, then alice fits again.
	cancel()
	for _, j := range []*Job{j1, j2} {
		deadline := time.Now().Add(30 * time.Second)
		for !j.Done() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never completed after cancel", j.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}
	j3, err := m.SubmitWith(context.Background(), []hdls.Config{cheapCell(99, dls.GSS)}, SubmitOpts{Client: "alice"})
	if err != nil {
		t.Fatalf("alice after her job completed: %v", err)
	}
	if _, err := j3.WaitCell(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterSecondsClamps pins the overload hint derivation: backlog
// divided by the observed EWMA completion rate, clamped to [1, 60], with
// a flat 2s before any throughput signal exists.
func TestRetryAfterSecondsClamps(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, Store: newMemStore(t, 4)})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	if got := m.RetryAfterSeconds(); got != 2 {
		t.Errorf("cold-start hint = %d, want 2", got)
	}
	for hint, tc := range map[int]struct {
		rate  float64
		depth int64
	}{
		10: {rate: 10, depth: 100},
		1:  {rate: 1000, depth: 100},  // near-zero wait still says 1
		60: {rate: 1, depth: 1 << 20}, // huge backlog clamps at 60
	} {
		m.ewmaMu.Lock()
		m.ewmaRate = tc.rate
		m.ewmaMu.Unlock()
		m.queueDepth.Store(tc.depth)
		if got := m.RetryAfterSeconds(); got != hint {
			t.Errorf("hint(rate=%v, depth=%d) = %d, want %d", tc.rate, tc.depth, got, hint)
		}
	}
	m.queueDepth.Store(0)
}

// TestSweepSheds429WithRetryAfter pins the HTTP surface of admission
// control: a submission over the active-job bound answers 429 with an
// honest integer Retry-After, and the shed shows on /metrics. 503 stays
// reserved for drain/queue-capacity failures.
func TestSweepSheds429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxActiveJobs: 1})

	// Occupy the only admission slot with a streaming sweep we can cancel.
	body, err := json.Marshal(map[string]any{"cells": slowCells(64)})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/sweep?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		// Stay attached: closing the body would disconnect the client and
		// cancel the job before the assertions below run.
		io.Copy(io.Discard, resp.Body)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.manager.Stats().ActiveJobs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streamed job never became active: stats %+v", s.manager.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/sweep", sweepBody(1))
	shed := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit sweep: HTTP %d (%s), want 429", resp.StatusCode, shed)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := time.ParseDuration(ra + "s"); err != nil || secs < time.Second || secs > 60*time.Second {
		t.Errorf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
	if !bytes.Contains(shed, []byte("active-job limit")) {
		t.Errorf("shed body %s does not name the limit", shed)
	}
	metrics := string(readBody(t, mustGet(t, ts.URL+"/metrics")))
	if !strings.Contains(metrics, "\nhdlsd_jobs_shed_total 1\n") {
		t.Error("metrics missing hdlsd_jobs_shed_total 1")
	}
	cancel()
	<-streamDone
}

// mustGet GETs url or fails the test.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// TestJournalRecoveryByteIdentity is the crash-recovery contract under
// -race: a daemon that accepted an async sweep and died mid-flight must,
// on restart over the same journal and cache directories, replay the job
// under its original id and serve results byte-identical to what the
// uninterrupted daemon would have produced. The "crash" is simulated by
// materializing exactly what a SIGKILL leaves behind — an acceptance
// record with no terminal line, a partially-warm cache — because a real
// kill cannot happen in-process; scripts/fleet_soak.sh does it with
// actual SIGKILLs against real daemons.
func TestJournalRecoveryByteIdentity(t *testing.T) {
	cacheDir := t.TempDir()
	cells := make([]hdls.Config, 6)
	for i := range cells {
		cells[i] = cheapCell(int64(i+1), dls.FAC2)
	}

	// The uninterrupted run: compute the sweep, capture the baseline bytes,
	// drain so every cell is persisted in the disk tier.
	baseline := func() []byte {
		s := New(Options{Workers: 2, CacheDir: cacheDir})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("baseline drain: %v", err)
			}
		}()
		resp := postJSON(t, ts.URL+"/v1/sweep?stream=1", map[string]any{"cells": cells})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline sweep: HTTP %d", resp.StatusCode)
		}
		return readBody(t, resp)
	}()

	// The crash leftovers: an acceptance record without a terminal line,
	// and a cache missing some of the job's cells (the writer had not
	// flushed them) — deterministic recomputation must restore those with
	// identical bytes.
	journalDir := t.TempDir()
	rec, err := json.Marshal(journalRecord{
		ID: "job-42", Client: "soak-tester", Submitted: time.Now(), Cells: cells,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(journalDir, "job-42"+journalSuffix), append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, e := range entries {
		if len(e.Name()) == 64 && removed < 2 {
			os.Remove(filepath.Join(cacheDir, e.Name()))
			removed++
		}
	}
	if removed != 2 {
		t.Fatalf("expected to evict 2 cached cells, got %d", removed)
	}

	// Restart: recovery must replay job-42 through the normal path.
	s, ts := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir, JournalDir: journalDir})
	if got := s.manager.Stats().JobsRecovered; got != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var status struct {
			Status    string `json:"status"`
			Recovered bool   `json:"recovered"`
		}
		if err := json.Unmarshal(readBody(t, mustGet(t, ts.URL+"/v1/jobs/job-42")), &status); err != nil {
			t.Fatal(err)
		}
		if !status.Recovered {
			t.Fatal("job status does not report recovered: true")
		}
		if status.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := readBody(t, mustGet(t, ts.URL+"/v1/jobs/job-42/results"))
	if !bytes.Equal(got, baseline) {
		t.Fatalf("replayed results differ from the uninterrupted run:\n got: %s\nwant: %s", got, baseline)
	}
	metrics := string(readBody(t, mustGet(t, ts.URL+"/metrics")))
	if !strings.Contains(metrics, "\nhdlsd_jobs_recovered_total 1\n") {
		t.Error("metrics missing hdlsd_jobs_recovered_total 1")
	}
	// The finished job's journal is gone, and the id sequence moved past
	// the recovered id so new jobs cannot collide with replayed ones.
	waitJournalEmpty(t, journalDir)
	resp := postJSON(t, ts.URL+"/v1/sweep", sweepBody(1))
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(readBody(t, resp), &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.JobID != "job-43" {
		t.Errorf("post-recovery job id = %q, want job-43", accepted.JobID)
	}
}

// waitJournalEmpty polls until dir holds no journals (the terminal append
// and removal run asynchronously in the completion path).
func waitJournalEmpty(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			return
		}
		if time.Now().After(deadline) {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("journal dir still holds %v", names)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalScanFiltersLeftovers pins the startup scan: completed
// journals (terminal record present) and corrupt ones are removed, temp
// debris from a crash mid-write is swept, and only genuine incomplete
// acceptance records come back — in submission order.
func TestJournalScanFiltersLeftovers(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mkRec := func(id string) string {
		rec, err := json.Marshal(journalRecord{
			ID: id, Submitted: time.Now(), Cells: []hdls.Config{cheapCell(1, dls.GSS)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(rec)
	}
	write("job-9"+journalSuffix, mkRec("job-9"))
	write("job-2"+journalSuffix, mkRec("job-2"))
	write("job-5"+journalSuffix, mkRec("job-5"), `{"done":true,"completed":1,"failed":0}`)
	write("job-7"+journalSuffix, "{ this is not json")
	write("job-8"+journalSuffix, mkRec("job-1")) // id does not match its file
	write(".tmp-job-3"+journalSuffix+"-x", "partial write")

	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := jl.scan()
	if len(recs) != 2 || recs[0].ID != "job-2" || recs[1].ID != "job-9" {
		t.Fatalf("scan = %+v, want [job-2 job-9]", recs)
	}
	if got := jl.corrupt.Load(); got != 2 {
		t.Errorf("corrupt = %d, want 2", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := []string{"job-2" + journalSuffix, "job-9" + journalSuffix}
	if fmt.Sprint(left) != fmt.Sprint(want) {
		t.Errorf("dir after scan = %v, want %v", left, want)
	}
}

// TestDeadlineExpiredSweepResolvesInBand pins end-to-end deadline
// behavior on the sweep surface: an already-expired deadline (absolute
// X-Deadline or relative ?timeout=) still yields a well-formed 200 stream
// whose every cell is the frozen, timestamp-free "deadline exceeded"
// error line — byte-identical no matter which daemon or fleet produced it
// — and the expiries are counted. Malformed deadline inputs are 400s.
func TestDeadlineExpiredSweepResolvesInBand(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cells := []hdls.Config{cheapCell(1, dls.GSS), cheapCell(2, dls.FAC2)}
	body, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		t.Fatal(err)
	}

	for name, arm := range map[string]func(*http.Request){
		"absolute-header": func(r *http.Request) { r.Header.Set("X-Deadline", "2020-01-01T00:00:00Z") },
		"relative-query":  func(r *http.Request) { r.URL.RawQuery += "&timeout=1ns" },
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep?stream=1", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		arm(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, want a 200 stream", name, resp.StatusCode)
		}
		var want []byte
		for i, c := range cells {
			want = append(want, ErrorCellLine(i, c.Hash(), deadlineExceededMsg)...)
			want = append(want, '\n')
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s stream:\n got: %s\nwant: %s", name, got, want)
		}
	}
	metrics := string(readBody(t, mustGet(t, ts.URL+"/metrics")))
	if !strings.Contains(metrics, "\nhdlsd_cells_deadline_expired_total 4\n") {
		t.Error("metrics missing hdlsd_cells_deadline_expired_total 4")
	}

	for query, hdr := range map[string]string{
		"?stream=1&timeout=banana": "",
		"?stream=1":                "half past noon",
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep"+query, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set("X-Deadline", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed deadline (%s %q): HTTP %d, want 400", query, hdr, resp.StatusCode)
		}
	}
}

// TestRunDeadline pins /v1/run deadline semantics: an expired deadline on
// an uncached cell is a 504 carrying the in-band error line, while a
// cache hit dodges the deadline entirely — replaying frozen bytes is
// effectively free, so refusing it would punish the cheap path.
func TestRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	cfg := cheapCell(77, dls.WF)
	post := func(deadline string) *http.Response {
		t.Helper()
		buf, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if deadline != "" {
			req.Header.Set("X-Deadline", deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("2020-01-01T00:00:00Z")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout || !bytes.Contains(body, []byte(deadlineExceededMsg)) {
		t.Fatalf("expired uncached run: HTTP %d %s, want 504 with the in-band line", resp.StatusCode, body)
	}
	// Compute it for real, then the expired deadline no longer matters.
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("unbounded run: HTTP %d", resp.StatusCode)
	} else {
		readBody(t, resp)
	}
	resp = post("2020-01-01T00:00:00Z")
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("X-Cache"), "hit") {
		t.Fatalf("expired cached run: HTTP %d X-Cache %q, want a 200 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

// TestDurabilityMetricNames pins the metric names this PR's dashboards
// and soak assertions grep for.
func TestDurabilityMetricNames(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: t.TempDir()})
	metrics := string(readBody(t, mustGet(t, ts.URL+"/metrics")))
	for _, want := range []string{
		"hdlsd_jobs_shed_total", "hdlsd_jobs_recovered_total",
		"hdlsd_jobs_recovery_failures_total", "hdlsd_journal_records_total",
		"hdlsd_journal_write_errors_total", "hdlsd_journal_finish_errors_total",
		"hdlsd_journal_corrupt_total", "hdlsd_cells_deadline_expired_total",
		"hdlsd_cache_disk_disabled", "hdlsd_cache_disk_write_drops_total",
	} {
		if !strings.Contains(metrics, "\n"+want+" ") {
			t.Errorf("metrics missing %s", want)
		}
	}
}
