package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dls"
	"repro/hdls"
)

// TestSubmitOverloadShedsWithRetryAfter locks graceful degradation at the
// submission edge: a sweep that cannot fit the bounded cell queue is shed
// with 503 and a Retry-After hint instead of queueing unboundedly.
func TestSubmitOverloadShedsWithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueCapacity: 2})
	cells := []hdls.Config{cheapCell(1, dls.GSS), cheapCell(2, dls.GSS), cheapCell(3, dls.GSS)}
	body, _ := json.Marshal(map[string]any{"cells": cells})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized submission: status %d, want 503 (%s)", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overload 503 is missing the Retry-After hint")
	}
}

// TestReadyzReady is the happy half of the readiness contract (the drain
// and saturation halves live in TestGracefulDrain and the fleet tests).
func TestReadyzReady(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d %s", resp.StatusCode, b)
	}
	var rz struct {
		Status        string `json:"status"`
		Draining      bool   `json:"draining"`
		QueueCapacity int    `json:"queue_capacity"`
		Workers       int    `json:"workers"`
	}
	if err := json.Unmarshal(b, &rz); err != nil {
		t.Fatalf("readyz body: %v %s", err, b)
	}
	if rz.Status != "ready" || rz.Draining || rz.Workers != 2 || rz.QueueCapacity <= 0 {
		t.Fatalf("readyz = %+v", rz)
	}
}

// TestJobStoreEviction locks satellite: the job store no longer grows
// unboundedly. Completed jobs age out by TTL (janitor-driven, no further
// submissions needed) and are capped by count, evictions are counted, and
// running jobs are never evicted.
func TestJobStoreEviction(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueCapacity: 64, JobTTL: 80 * time.Millisecond, RetainedJobs: 2, Store: newMemStore(t, 64)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	}()

	waitDone := func(j *Job) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !j.Done() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not complete", j.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Count cap: with RetainedJobs=2, finishing a third job must push the
	// oldest completed one out on the next submission's eviction pass.
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit([]hdls.Config{cheapCell(int64(10+i), dls.GSS)})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(j)
		jobs = append(jobs, j)
	}
	if _, ok := m.Job(jobs[0].ID); ok {
		t.Fatalf("job %s survived the retention cap", jobs[0].ID)
	}
	if _, ok := m.Job(jobs[3].ID); !ok {
		t.Fatalf("newest job %s was evicted", jobs[3].ID)
	}
	st := m.Stats()
	if st.JobsEvicted == 0 {
		t.Fatal("eviction happened but JobsEvicted is 0")
	}
	// The cap counts completed jobs: at job-4's submission-time eviction
	// pass, job-4 itself was still running, so up to cap+1 jobs linger
	// until the next pass.
	if st.JobsRetained > 3 {
		t.Fatalf("JobsRetained = %d, want <= 3", st.JobsRetained)
	}

	// TTL: with no further submissions, the janitor alone must clear the
	// remaining completed jobs once they age past the TTL.
	deadline := time.Now().Add(30 * time.Second)
	for m.Stats().JobsRetained > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never evicted TTL-expired jobs: %d retained", m.Stats().JobsRetained)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobStoreEvictionQueue runs 64 sequential jobs through a manager that
// retains 2, with the first job pinned throughout: every submission's
// eviction pass pops the oldest completed jobs, so the newest two survive,
// the pinned job survives until it is released, and JobsEvicted counts
// every other job. A burst from concurrent submitters follows, racing the
// workers' retirements under -race.
func TestJobStoreEvictionQueue(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueCapacity: 64, JobTTL: time.Hour, RetainedJobs: 2, Store: newMemStore(t, 16)})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	run := func(seed int64) *Job {
		t.Helper()
		j, err := m.Submit([]hdls.Config{cheapCell(seed, dls.GSS)})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for !j.Done() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not complete", j.ID)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return j
	}

	jobs := []*Job{run(1)}
	_, release, ok := m.Acquire(jobs[0].ID)
	if !ok {
		t.Fatal("completed job not addressable")
	}
	for i := 1; i < 64; i++ {
		jobs = append(jobs, run(int64(i+1)))
	}
	for i, j := range jobs {
		_, kept := m.Job(j.ID)
		if want := i == 0 || i >= 62; kept != want {
			t.Errorf("job %d (%s): retained = %v, want %v", i, j.ID, kept, want)
		}
	}
	if st := m.Stats(); st.JobsEvicted != 61 || st.JobsRetained != 3 {
		t.Errorf("JobsEvicted = %d, JobsRetained = %d; want 61 and 3", st.JobsEvicted, st.JobsRetained)
	}

	release()
	last := run(65) // its submission's pass finds the released job over the cap
	if _, kept := m.Job(jobs[0].ID); kept {
		t.Error("released job survived an eviction pass over the cap")
	}
	for _, j := range []*Job{jobs[62], jobs[63], last} {
		if _, kept := m.Job(j.ID); !kept {
			t.Errorf("job %s evicted; only the released job was over the cap", j.ID)
		}
	}
	if st := m.Stats(); st.JobsEvicted != 62 {
		t.Errorf("JobsEvicted = %d after the release, want 62", st.JobsEvicted)
	}

	// Concurrent submitters race the workers' retirements: every job is
	// still either retained or counted as evicted, and one more pass
	// leaves at most the cap plus the job that triggered it.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				j, err := m.Submit([]hdls.Config{cheapCell(int64(100+16*c+i), dls.GSS)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := j.WaitCell(context.Background(), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	run(200)
	if st := m.Stats(); st.JobsRetained > 3 || st.JobsEvicted+int64(st.JobsRetained) != st.Jobs {
		t.Errorf("after the concurrent burst: %d jobs, %d evicted, %d retained", st.Jobs, st.JobsEvicted, st.JobsRetained)
	}
}

// TestStreamDisconnectCancelsCells locks the request-context satellite: a
// client that abandons a streaming sweep mid-flight aborts the in-flight
// simulation and skips the queued cells — and none of those canceled
// outcomes poison the result cache.
func TestStreamDisconnectCancelsCells(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	cells := make([]hdls.Config, 24)
	for i := range cells {
		cells[i] = hdls.Config{
			Nodes: 2, WorkersPerNode: 8, Inter: dls.GSS, Intra: dls.SS,
			Approach: hdls.MPIMPI, Seed: int64(i + 1),
			Workload: "gaussian:n=16384,cv=0.5",
		}
	}
	body, _ := json.Marshal(map[string]any{"cells": cells})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first line so the sweep is demonstrably in flight, then
	// vanish like a crashed client.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The worker pool must come to rest without running the whole sweep.
	deadline := time.Now().Add(60 * time.Second)
	for s.manager.Stats().ActiveJobs > 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never settled after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.manager.Stats()
	if st.CellsCanceled == 0 {
		t.Fatalf("no cells were canceled after disconnect: %+v", st)
	}

	// Canceled outcomes must not be cached: rerunning the sweep to
	// completion yields a real summary for every cell.
	resp2 := postJSON(t, ts.URL+"/v1/sweep?stream=1", map[string]any{"cells": cells})
	lines := parseNDJSON(t, readBody(t, resp2))
	if len(lines) != len(cells) {
		t.Fatalf("rerun: %d lines, want %d", len(lines), len(cells))
	}
	for i, ln := range lines {
		if ln.Error != "" || len(ln.Summary) == 0 {
			t.Fatalf("rerun cell %d poisoned by cancellation: error=%q", i, ln.Error)
		}
	}
}

// TestMetricsExposeRobustnessCounters checks the new rows are actually on
// /metrics, where the fleet smoke and dashboards look for them.
func TestMetricsExposeRobustnessCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	for _, want := range []string{
		"hdlsd_jobs_retained", "hdlsd_jobs_evicted_total", "hdlsd_cells_canceled_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}
