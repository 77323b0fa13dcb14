package checks

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// Verdict statuses.
const (
	// StatusPass means every measured goal held.
	StatusPass = "pass"
	// StatusFail means a goal was violated or the case broke structurally
	// (daemon died, replay bytes diverged, transport failure).
	StatusFail = "fail"
	// StatusSkip means the host does not fit the machine class; no verdict
	// is meaningful.
	StatusSkip = "skip"
)

// Instance is one live hdlsd the runner executes a case against.
type Instance struct {
	// BaseURL is the daemon's root URL ("http://127.0.0.1:PORT").
	BaseURL string
	// Down probes whether the daemon died out from under the case; a
	// non-nil error explains how. May be nil (in-process executors cannot
	// die separately from the test).
	Down func() error
	// Stop tears the instance down after the case.
	Stop func() error
}

// Executor provides a fresh live hdlsd per case, so every case starts
// from a cold store and unpolluted counters. The CLI runs a subprocess
// daemon (DaemonExecutor); tests run an in-process serve.Server behind
// httptest (InProcessExecutor).
type Executor interface {
	Start(c *Case) (*Instance, error)
}

// Result is one case's verdict plus everything the trend history keeps.
type Result struct {
	// Check is the qualified check name, "<class>/<case>".
	Check string
	// Status is pass, fail or skip.
	Status string
	// Measured maps metric names to observed values (empty on skip and on
	// structural failure before measurement).
	Measured map[string]float64
	// Failures lists the violated goals (goal failures only).
	Failures []Failure
	// Notes records skipped goals and host-fit reasons.
	Notes []string
	// Err is a structural failure: the daemon died, a replay pass diverged
	// byte-wise, the executor could not start. A Result with Err is a
	// StatusFail even if no goal was evaluated.
	Err error
	// Elapsed is the case's wall time.
	Elapsed time.Duration
}

// Failed reports whether the result must fail CI.
func (r Result) Failed() bool { return r.Status == StatusFail }

// Summary renders the one-line verdict CI surfaces:
//
//	check quick/fig4-grid: FAIL: cells_per_second 61.2 < goal 65
func (r Result) Summary() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("check %s: FAIL: %v", r.Check, r.Err)
	case r.Status == StatusFail:
		msgs := make([]string, len(r.Failures))
		for i, f := range r.Failures {
			msgs[i] = f.String()
		}
		return fmt.Sprintf("check %s: FAIL: %s", r.Check, strings.Join(msgs, "; "))
	case r.Status == StatusSkip:
		note := ""
		if len(r.Notes) > 0 {
			note = ": " + r.Notes[0]
		}
		return fmt.Sprintf("check %s: SKIP%s", r.Check, note)
	default:
		return fmt.Sprintf("check %s: PASS", r.Check)
	}
}

// Runner executes a machine class's cases through live hdlsd instances
// and renders named verdicts.
type Runner struct {
	// Exec provides one fresh daemon per case.
	Exec Executor
	// Host is the calibrated execution environment (Calibrate()).
	Host Host
	// Client issues the case's HTTP traffic (default http.DefaultClient).
	Client *http.Client
	// Log receives per-case progress lines; nil silences them.
	Log io.Writer
}

func (r *Runner) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// RunClass fits the host against the class envelope and runs every case.
// A host outside the envelope yields one skip Result per case — the trend
// history still records that the class was attempted — and never a
// wall-clock verdict that would be noise.
func (r *Runner) RunClass(class *Class) []Result {
	scale, reason := class.Machine.Fit(r.Host)
	results := make([]Result, 0, len(class.Cases))
	for _, c := range class.Cases {
		if reason != "" {
			res := Result{
				Check:  c.CheckName(),
				Status: StatusSkip,
				Notes:  []string{"host does not fit machine class: " + reason},
			}
			r.logf("%s", res.Summary())
			results = append(results, res)
			continue
		}
		res := r.RunCase(c, scale)
		r.logf("%s", res.Summary())
		results = append(results, res)
	}
	return results
}

// RunCase executes one case against a fresh daemon and evaluates its
// goals. scale is the host-over-reference calibration ratio from
// MachineSpec.Fit.
func (r *Runner) RunCase(c *Case, scale float64) (res Result) {
	res = Result{Check: c.CheckName(), Status: StatusPass}
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	inst, err := r.Exec.Start(c)
	if err != nil {
		res.Status = StatusFail
		res.Err = fmt.Errorf("executor: %w", err)
		return res
	}
	defer func() {
		if inst.Stop != nil {
			if err := inst.Stop(); err != nil && res.Err == nil {
				res.Notes = append(res.Notes, "stop: "+err.Error())
			}
		}
	}()

	var measured map[string]float64
	switch c.Spec.Target {
	case TargetSweep:
		measured, err = r.runSweep(c, inst)
	case TargetServe, TargetSoak:
		measured, err = r.runLoad(c, inst)
	default: // unreachable after Load validation
		err = fmt.Errorf("unknown target %q", c.Spec.Target)
	}
	if err != nil {
		res.Status = StatusFail
		res.Err = r.attributeDown(inst, err)
		return res
	}
	res.Measured = measured

	fails, notes := evalGoals(c.Goals, measured, scale)
	res.Failures = fails
	res.Notes = append(res.Notes, notes...)
	if len(fails) > 0 {
		res.Status = StatusFail
	}
	return res
}

// attributeDown upgrades a transport-level error to a daemon-death
// verdict when the executor knows its process is gone, so a SIGKILLed
// daemon fails the check by name instead of crashing the harness. The
// kernel delivers the connection error before the supervisor reaps the
// corpse, so the probe gets a short grace window; the wait only happens
// on the already-failing path.
func (r *Runner) attributeDown(inst *Instance, err error) error {
	if inst.Down == nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if derr := inst.Down(); derr != nil {
			return fmt.Errorf("daemon died mid-case (%v) — last error: %v", derr, err)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrape fetches and parses the daemon's /metrics.
func (r *Runner) scrape(baseURL string) (map[string]float64, error) {
	resp, err := r.client().Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	m, err := serve.ParseMetrics(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return m, nil
}

// runSweep streams the case's figure-grid slice through POST
// /v1/sweep?stream=1, passes times. Pass 1 is the cold measurement;
// later passes must replay byte-identically from the result store (the
// castore invariant) and feed warm_speedup. Store effectiveness, allocs
// and RSS come from /metrics deltas around the case, so the measurement
// is identical whether the daemon is in-process or a subprocess.
func (r *Runner) runSweep(c *Case, inst *Instance) (map[string]float64, error) {
	spec := c.Spec.Sweep
	cells := spec.cellsFor()
	req, err := json.Marshal(map[string]any{"cells": cells})
	if err != nil {
		return nil, err
	}

	before, err := r.scrape(inst.BaseURL)
	if err != nil {
		return nil, err
	}

	var coldBody []byte
	var coldWall, lastWall time.Duration
	for pass := 1; pass <= spec.passes(); pass++ {
		body, wall, err := r.sweepOnce(inst.BaseURL, req)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		if pass == 1 {
			coldBody, coldWall = body, wall
		} else if !bytes.Equal(body, coldBody) {
			return nil, fmt.Errorf("pass %d replay bytes differ from pass 1 (store invariant broken)", pass)
		}
		lastWall = wall
	}

	after, err := r.scrape(inst.BaseURL)
	if err != nil {
		return nil, err
	}

	measured := map[string]float64{
		MetricCellsPerSecond: float64(len(cells)) / coldWall.Seconds(),
		MetricErrorLines:     float64(bytes.Count(coldBody, []byte(`"error":"`))),
	}
	if spec.passes() >= 2 && lastWall > 0 {
		measured[MetricWarmSpeedup] = coldWall.Seconds() / lastWall.Seconds()
	}
	addScrapeDeltas(measured, before, after)
	return measured, nil
}

// sweepOnce streams one sweep and returns the NDJSON body and wall time.
func (r *Runner) sweepOnce(baseURL string, body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := r.client().Post(baseURL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, firstLine(out))
	}
	return out, time.Since(start), nil
}

// runLoad replays loadgen traffic against the daemon: stream mode for the
// serve target, async+wait for the soak target (gating the drain path).
func (r *Runner) runLoad(c *Case, inst *Instance) (map[string]float64, error) {
	spec := c.Spec.Load
	mode, wait := "stream", false
	if c.Spec.Target == TargetSoak {
		mode, wait = "async", true
	}

	before, err := r.scrape(inst.BaseURL)
	if err != nil {
		return nil, err
	}

	sum, err := loadgen.Run(context.Background(), loadgen.Options{
		Target:       inst.BaseURL,
		Clients:      spec.Clients,
		Sweeps:       spec.Sweeps,
		Cells:        spec.Cells,
		Workload:     spec.workload(),
		Mode:         mode,
		Wait:         wait,
		Seed:         spec.seed(),
		ClientPrefix: "check",
		Client:       r.client(),
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	// loadgen counts a rejected sweep as an attempt but times only the
	// completed ones, so a case whose sweeps were all rejected would
	// otherwise pass on an empty latency sample.
	if want := spec.Clients * spec.Sweeps; sum.Latency.Count < want {
		return nil, fmt.Errorf("loadgen: %d of %d sweeps completed (HTTP statuses %v, transport errors %d)",
			sum.Latency.Count, want, sum.Statuses, sum.TransportErrors)
	}

	after, err := r.scrape(inst.BaseURL)
	if err != nil {
		return nil, err
	}

	measured := map[string]float64{
		MetricRequestsPerSecond: float64(sum.Sweeps) / sum.ElapsedSeconds,
		MetricP99StreamMs:       sum.Latency.P99,
		MetricErrorLines:        float64(sum.ErrorLines),
		MetricTransportErrors:   float64(sum.TransportErrors),
	}
	addScrapeDeltas(measured, before, after)
	return measured, nil
}

// addScrapeDeltas derives the daemon-side metrics every target shares
// from the /metrics scrapes bracketing the case: the store hit rate over
// the case's own lookups, allocations per processed cell, and the final
// resident set (a gauge, not a delta; 0 means the platform could not
// measure it and the goal is skipped).
func addScrapeDeltas(measured map[string]float64, before, after map[string]float64) {
	hits := after["hdlsd_cache_hits_total"] - before["hdlsd_cache_hits_total"]
	misses := after["hdlsd_cache_misses_total"] - before["hdlsd_cache_misses_total"]
	if lookups := hits + misses; lookups > 0 {
		measured[MetricCacheHitRate] = hits / lookups
	}
	cells := after["hdlsd_cells_total"] - before["hdlsd_cells_total"]
	mallocs := after["hdlsd_go_mallocs_total"] - before["hdlsd_go_mallocs_total"]
	if cells > 0 && mallocs > 0 {
		measured[MetricAllocsPerCell] = mallocs / cells
	}
	measured[MetricRSSBytes] = after["hdlsd_process_rss_bytes"]
}

// firstLine trims an error body to its first line for messages.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}
