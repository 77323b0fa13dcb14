package checks

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// writeTree materializes a one-class checks tree for a test.
func writeTree(t *testing.T, machine string, cases map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "trend"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "test", "cases"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "test", "machine.json"), []byte(machine), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range cases {
		cdir := filepath.Join(dir, "test", "cases", name)
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, "case.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const okMachine = `{"calib_ref_mops": 700, "calib_band": 8}`

const okSweepCase = `{
  "target": "sweep",
  "sweep": {"figures": [4], "nodes": [2], "scale": 1024, "passes": 2},
  "goals": {"cells_per_second_min": 1, "warm_speedup_min": 1, "error_lines_max": 0}
}`

// TestLoadValidation exercises the named-error contract: every broken
// tree must fail naming the class, case and field, never with a generic
// unmarshal message.
func TestLoadValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		machine string
		cases   map[string]string
		want    string // substring of the load error
	}{
		{
			name:    "bad size unit",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "sweep", "sweep": {"figures": [4], "nodes": [2]},
				"goals": {"rss_max": "512mb"}}`},
			want: `goal rss_max: bad size "512mb"`,
		},
		{
			name:    "bad duration",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "serve", "load": {"clients": 1, "sweeps": 1, "cells": 1},
				"goals": {"p99_stream_max": "fast"}}`},
			want: `goal p99_stream_max: bad duration "fast"`,
		},
		{
			name:    "no goals",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "sweep", "sweep": {"figures": [4], "nodes": [2]}, "goals": {}}`},
			want: "declares no goals",
		},
		{
			name:    "goal wrong target",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "serve", "load": {"clients": 1, "sweeps": 1, "cells": 1},
				"goals": {"cells_per_second_min": 10}}`},
			want: "goal cells_per_second_min requires target sweep",
		},
		{
			name:    "warm speedup needs passes",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "sweep", "sweep": {"figures": [4], "nodes": [2]},
				"goals": {"warm_speedup_min": 5}}`},
			want: "warm_speedup_min needs sweep.passes >= 2",
		},
		{
			name:    "unknown target",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "bench", "goals": {"error_lines_max": 0}}`},
			want: `unknown target "bench"`,
		},
		{
			name:    "sweep block on serve target",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "serve", "load": {"clients": 1, "sweeps": 1, "cells": 1},
				"sweep": {"figures": [4], "nodes": [2]},
				"goals": {"error_lines_max": 0}}`},
			want: `target serve does not take a "sweep" block`,
		},
		{
			name:    "typoed load workload",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "serve",
				"load": {"clients": 1, "sweeps": 1, "cells": 1, "workload": "constnat:n=256"},
				"goals": {"error_lines_max": 0}}`},
			want: `case test/c: load.workload: `,
		},
		{
			name:    "unknown figure",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "sweep", "sweep": {"figures": [9], "nodes": [2]},
				"goals": {"error_lines_max": 0}}`},
			want: "unknown figure 9",
		},
		{
			name:    "typoed goal key",
			machine: okMachine,
			cases: map[string]string{"c": `{
				"target": "sweep", "sweep": {"figures": [4], "nodes": [2]},
				"goals": {"cells_per_sec_min": 10}}`},
			want: "cells_per_sec_min",
		},
		{
			name:    "machine missing calibration",
			machine: `{"cores_min": 1}`,
			cases:   map[string]string{"c": okSweepCase},
			want:    "calib_ref_mops must be positive",
		},
		{
			name:    "machine band below one",
			machine: `{"calib_ref_mops": 700, "calib_band": 0.5}`,
			cases:   map[string]string{"c": okSweepCase},
			want:    "calib_band must be >= 1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeTree(t, tc.machine, tc.cases)
			_, err := Load(dir)
			if err == nil {
				t.Fatalf("Load accepted a broken tree")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestUnknownClass pins the named error listing available classes.
func TestUnknownClass(t *testing.T) {
	dir := writeTree(t, okMachine, map[string]string{"c": okSweepCase})
	tree, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tree.Class("metal")
	if err == nil || !strings.Contains(err.Error(), `unknown machine class "metal" (have: test)`) {
		t.Fatalf("unknown class error = %v", err)
	}
}

// TestEvalGoals covers the verdict arithmetic: floors vs ceilings,
// calibration scaling, and skip-with-note for unmeasured metrics.
func TestEvalGoals(t *testing.T) {
	goals := []Goal{
		{Metric: MetricCellsPerSecond, Floor: true, Limit: 65, Scaled: true, Display: "65"},
		{Metric: MetricRSSBytes, Floor: false, Limit: 256 << 20, Display: "256MiB"},
		{Metric: MetricErrorLines, Floor: false, Limit: 0, Display: "0"},
	}
	t.Run("pass", func(t *testing.T) {
		fails, notes := evalGoals(goals, map[string]float64{
			MetricCellsPerSecond: 70, MetricRSSBytes: 100 << 20, MetricErrorLines: 0,
		}, 1)
		if len(fails) != 0 || len(notes) != 0 {
			t.Fatalf("fails=%v notes=%v", fails, notes)
		}
	})
	t.Run("floor fails with scale note", func(t *testing.T) {
		// Effective floor = 65 × 0.97 = 63.05, so 61.23 fails.
		fails, _ := evalGoals(goals, map[string]float64{
			MetricCellsPerSecond: 61.23, MetricRSSBytes: 1, MetricErrorLines: 0,
		}, 0.97)
		if len(fails) != 1 {
			t.Fatalf("fails = %v, want 1", fails)
		}
		msg := fails[0].String()
		for _, part := range []string{"cells_per_second", "61.2", "< goal 65", "calib 0.97"} {
			if !strings.Contains(msg, part) {
				t.Errorf("failure %q missing %q", msg, part)
			}
		}
	})
	t.Run("scaled floor lowers the bar", func(t *testing.T) {
		// 61 < 65 raw, but the host calibrates at 0.9× the reference, so the
		// effective floor is 58.5 and the measurement passes.
		fails, _ := evalGoals(goals[:1], map[string]float64{MetricCellsPerSecond: 61}, 0.9)
		if len(fails) != 0 {
			t.Fatalf("scaled floor still failed: %v", fails)
		}
	})
	t.Run("ceiling fails", func(t *testing.T) {
		fails, _ := evalGoals(goals, map[string]float64{
			MetricCellsPerSecond: 70, MetricRSSBytes: 300 << 20, MetricErrorLines: 0,
		}, 1)
		if len(fails) != 1 || fails[0].Metric != MetricRSSBytes {
			t.Fatalf("fails = %v, want one rss_bytes ceiling", fails)
		}
		if msg := fails[0].String(); !strings.Contains(msg, "> goal 256MiB") {
			t.Errorf("failure %q missing declared display", msg)
		}
	})
	t.Run("unmeasured metric skips with note", func(t *testing.T) {
		fails, notes := evalGoals(goals, map[string]float64{
			MetricCellsPerSecond: 70, MetricRSSBytes: 0, MetricErrorLines: 0,
		}, 1)
		if len(fails) != 0 {
			t.Fatalf("rss 0 (unmeasured) produced failures: %v", fails)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "goal rss_max skipped") {
			t.Fatalf("notes = %v, want one rss skip note", notes)
		}
	})
}

// TestHostFitSkips pins the uncalibrated-host verdict: a host outside the
// class's calibration band gets per-case skips, not wall-clock verdicts.
func TestHostFitSkips(t *testing.T) {
	dir := writeTree(t, `{"calib_ref_mops": 1e9, "calib_band": 2}`,
		map[string]string{"c": okSweepCase})
	tree, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	class := tree.Classes[0]
	host := Host{Cores: 1, CalibMops: 700}
	if _, reason := class.Machine.Fit(host); reason == "" {
		t.Fatal("absurd reference fit the host")
	}
	runner := &Runner{Exec: &InProcessExecutor{}, Host: host}
	results := runner.RunClass(class)
	if len(results) != 1 || results[0].Status != StatusSkip {
		t.Fatalf("results = %+v, want one skip", results)
	}
	if !strings.Contains(results[0].Summary(), "SKIP") {
		t.Errorf("summary %q not a skip", results[0].Summary())
	}

	t.Run("cores_min", func(t *testing.T) {
		m := MachineSpec{CalibRefMops: 700, CoresMin: 64}
		if _, reason := m.Fit(host); !strings.Contains(reason, "cores") {
			t.Fatalf("reason %q does not name cores", reason)
		}
	})
}

// TestTrendRoundTrip appends rows, reloads them, and checks the reader
// tolerates keys a future runner may add.
func TestTrendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend", "quick.ndjson")
	host := Host{Cores: 1, CalibMops: 700, GoVersion: "go1.24.0"}
	when := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	results := []Result{
		{
			Check: "quick/fig4-grid", Status: StatusPass,
			Measured: map[string]float64{MetricCellsPerSecond: 400},
			Elapsed:  1500 * time.Millisecond,
		},
		{
			Check: "quick/serve-stream", Status: StatusFail,
			Failures: []Failure{{Metric: MetricP99StreamMs, Measured: 312, Limit: 250, Display: "250ms"}},
		},
	}
	if err := AppendRows(path, RowsFromResults(host, when, results)); err != nil {
		t.Fatal(err)
	}
	// A future runner adds keys; today's reader must shrug them off.
	future := `{"time":"2026-09-01T00:00:00Z","check":"quick/fig4-grid","status":"pass","flux_capacitance":1.21,"measured":{"cells_per_second":410}}` + "\n"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(future); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rows, err := LoadRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Check != "quick/fig4-grid" || rows[0].Time != "2026-08-07T12:00:00Z" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[0].ElapsedSeconds != 1.5 || rows[0].CalibMops != 700 {
		t.Errorf("row 0 stamps = %+v", rows[0])
	}
	if len(rows[1].Failures) != 1 || !strings.Contains(rows[1].Failures[0], "p99_stream_ms") {
		t.Errorf("row 1 failures = %v", rows[1].Failures)
	}
	if rows[2].Measured[MetricCellsPerSecond] != 410 {
		t.Errorf("future row measured = %v", rows[2].Measured)
	}

	t.Run("missing file is empty history", func(t *testing.T) {
		rows, err := LoadRows(filepath.Join(t.TempDir(), "absent.ndjson"))
		if err != nil || rows != nil {
			t.Fatalf("rows=%v err=%v", rows, err)
		}
	})
	t.Run("broken line names its number", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "bad.ndjson")
		if err := os.WriteFile(p, []byte("{\"check\":\"a\"}\nnot json\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRows(p)
		if err == nil || !strings.Contains(err.Error(), ":2:") {
			t.Fatalf("err = %v, want line 2 named", err)
		}
	})
}

// TestRunCaseEndToEnd is the serving-path e2e: real cases executed
// against an in-process hdlsd, goals evaluated from real /metrics
// scrapes, the sweep target's replay pass hitting the real store. Runs
// under -race in CI.
func TestRunCaseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons and simulates; skipped under -short")
	}
	dir := writeTree(t, okMachine, map[string]string{
		"grid": `{
			"target": "sweep",
			"sweep": {"figures": [4], "nodes": [2], "scale": 1024, "passes": 2},
			"goals": {"cells_per_second_min": 1, "warm_speedup_min": 1,
			          "cache_hit_rate_min": 0.45, "error_lines_max": 0}}`,
		"serve": `{
			"target": "serve",
			"load": {"clients": 2, "sweeps": 2, "cells": 2, "workload": "constant:n=256"},
			"goals": {"requests_per_second_min": 0.5, "p99_stream_max": "30s",
			          "error_lines_max": 0, "transport_errors_max": 0}}`,
		"soak": `{
			"target": "soak",
			"load": {"clients": 1, "sweeps": 2, "cells": 2, "workload": "constant:n=256"},
			"goals": {"p99_stream_max": "60s", "transport_errors_max": 0}}`,
	})
	tree, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	class := tree.Classes[0]
	runner := &Runner{Exec: &InProcessExecutor{Workers: 2}, Host: Host{Cores: 1, CalibMops: 700}}
	results := runner.RunClass(class)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	byCheck := map[string]Result{}
	for _, res := range results {
		byCheck[res.Check] = res
		if res.Err != nil {
			t.Fatalf("%s: structural error: %v", res.Check, res.Err)
		}
		if res.Failed() {
			t.Errorf("%s", res.Summary())
		}
	}
	grid := byCheck["test/grid"]
	if grid.Measured[MetricCellsPerSecond] <= 0 {
		t.Errorf("grid measured no throughput: %v", grid.Measured)
	}
	// Two identical passes: the second is all hits, so the case's own
	// lookups split exactly 50/50.
	if got := grid.Measured[MetricCacheHitRate]; got != 0.5 {
		t.Errorf("grid hit rate = %g, want 0.5", got)
	}
	if grid.Measured[MetricWarmSpeedup] <= 1 {
		t.Errorf("warm pass no faster than cold: %v", grid.Measured)
	}
	srv := byCheck["test/serve"]
	if srv.Measured[MetricP99StreamMs] <= 0 || srv.Measured[MetricRequestsPerSecond] <= 0 {
		t.Errorf("serve latency/rate missing: %v", srv.Measured)
	}
	soak := byCheck["test/soak"]
	if soak.Measured[MetricP99StreamMs] <= 0 {
		t.Errorf("soak drain latency missing: %v", soak.Measured)
	}

	t.Run("lowered goal fails by name", func(t *testing.T) {
		raised := *class.Cases[0] // the grid case
		raised.Goals = []Goal{{Metric: MetricCellsPerSecond, Floor: true, Limit: 1e12, Scaled: true, Display: "1e+12"}}
		res := runner.RunCase(&raised, 1)
		if !res.Failed() || res.Err != nil {
			t.Fatalf("absurd floor did not fail cleanly: %+v", res)
		}
		msg := res.Summary()
		for _, part := range []string{"check test/grid", "FAIL", "cells_per_second", "< goal 1e+12"} {
			if !strings.Contains(msg, part) {
				t.Errorf("summary %q missing %q", msg, part)
			}
		}
	})

	t.Run("rejected sweeps fail the case", func(t *testing.T) {
		// The loader rejects a typoed workload (TestLoadValidation), so the
		// spec is changed after loading: the daemon rejects every sweep
		// with 400, and the goals would all pass on the empty latency
		// sample.
		typoed := *class.Cases[1] // the serve case
		load := *typoed.Spec.Load
		load.Workload = "constnat:n=256"
		typoed.Spec.Load = &load
		res := runner.RunCase(&typoed, 1)
		if res.Err == nil {
			t.Fatalf("case with every sweep rejected did not fail structurally: %s, measured %v",
				res.Summary(), res.Measured)
		}
		for _, part := range []string{"check test/serve", "0 of 4 sweeps completed", "400:4"} {
			if !strings.Contains(res.Summary(), part) {
				t.Errorf("summary %q missing %q", res.Summary(), part)
			}
		}
	})
}

// TestCommittedTree loads the repo's real checks/ tree, so a broken
// case.json fails `go test ./...` before it can break `make check`, and
// runs the quick class in-process, so a case the daemon cannot serve
// fails here too. Goal verdicts are wall-clock bound and stay `make
// check`'s job.
func TestCommittedTree(t *testing.T) {
	tree, err := Load(filepath.Join("..", "..", "checks"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nightly", "quick"} {
		if _, err := tree.Class(want); err != nil {
			t.Errorf("committed tree: %v", err)
		}
	}
	quick, _ := tree.Class("quick")
	if len(quick.Cases) < 3 {
		t.Errorf("quick class has %d cases, want >= 3", len(quick.Cases))
	}
	warmGate := false
	for _, c := range quick.Cases {
		if len(c.Goals) == 0 {
			t.Errorf("case %s has no goals", c.CheckName())
		}
		if c.Spec.Target != TargetSweep || c.Spec.Sweep.passes() < 2 {
			continue
		}
		for _, g := range c.Goals {
			warmGate = warmGate || (g.Metric == MetricWarmSpeedup && g.Limit >= 5)
		}
	}
	// A memory tier that stops hitting replays at about 1x cold.
	if !warmGate {
		t.Error("no quick-class sweep case with passes >= 2 declares warm_speedup_min >= 5")
	}

	t.Run("quick class in-process", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns daemons and simulates; skipped under -short")
		}
		// The host is pinned to the class reference, so a slow host
		// cannot turn the run into skips.
		host := Host{Cores: runtime.NumCPU(), CalibMops: quick.Machine.CalibRefMops}
		runner := &Runner{Exec: &InProcessExecutor{}, Host: host}
		for _, res := range runner.RunClass(quick) {
			if res.Err != nil || res.Status == StatusSkip {
				t.Error(res.Summary())
			}
		}
	})
}

// TestGridCellsMatchesBench pins the shared grid enumeration to the
// 256-cell count every BENCH snapshot records for figures 4-7 over the
// default node axis.
func TestGridCellsMatchesBench(t *testing.T) {
	cells, err := GridCells([]int{4, 5, 6, 7}, []int{2, 4, 8, 16}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 256 {
		t.Fatalf("grid = %d cells, want 256", len(cells))
	}
	raw, err := json.Marshal(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"app"`, `"nodes"`, `"inter"`, `"intra"`, `"approach"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("cell JSON %s missing %s", raw, key)
		}
	}
}
