// Package checks is the machine-class perf-gate service (DESIGN.md §14):
// a declarative checks/ tree of machine classes and cases in the
// DataDog-SMP "workload checks" shape, a runner that executes every case
// through a live hdlsd instance — the daemon is dogfooded as the bench
// executor — and a trend history of one NDJSON row per case per run.
//
// The tree:
//
//	checks/<class>/machine.json            resource + calibration envelope
//	checks/<class>/cases/<name>/case.json  workload, target, goals
//	checks/trend/<class>.ndjson            appended measurement history
//
// A case declares a target — a figure-grid sweep, the serving path under
// loadgen traffic, or an async soak slice — and goals: throughput floors,
// alloc/RSS ceilings, cache-hit-rate floors, p99 latency ceilings.
// Verdicts are named: CI fails with
//
//	check quick/fig4-grid: cells_per_second 61.2 < goal 65
//
// instead of a raw regression percentage. Throughput floors are declared
// relative to the machine class's reference calibration and scaled to the
// measured host; hosts outside the class's calibration band skip the class
// rather than producing meaningless wall-clock verdicts.
package checks

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/hdls"
	"repro/internal/cliutil"
	"repro/internal/workload"
)

// Case targets.
const (
	// TargetSweep streams a figure-grid sweep through POST /v1/sweep and
	// gates throughput, warm speedup, hit rate, allocs and RSS.
	TargetSweep = "sweep"
	// TargetServe replays concurrent stream-mode loadgen traffic and gates
	// requests/sec, p99 stream latency and error counts.
	TargetServe = "serve"
	// TargetSoak replays async loadgen traffic polled to completion and
	// gates the drain path (p99 submit-to-drained latency, errors).
	TargetSoak = "soak"
)

// MachineSpec is a machine class's machine.json: the resource envelope a
// host must fit before the class's goals mean anything.
type MachineSpec struct {
	// Description says what hardware the class models.
	Description string `json:"description,omitempty"`
	// CoresMin is the minimum host core count (default 1).
	CoresMin int `json:"cores_min,omitempty"`
	// CalibRefMops is the single-core calibration score (millions of
	// splitmix64 steps per second, cliutil.CalibScore) the class's
	// throughput goals are declared against. Required.
	CalibRefMops float64 `json:"calib_ref_mops"`
	// CalibBand bounds how far a host's calibration may drift from the
	// reference, as a ratio: hosts outside
	// [CalibRefMops/CalibBand, CalibRefMops*CalibBand] skip the class
	// (default 4).
	CalibBand float64 `json:"calib_band,omitempty"`
}

func (m MachineSpec) withDefaults() MachineSpec {
	if m.CoresMin == 0 {
		m.CoresMin = 1
	}
	if m.CalibBand == 0 {
		m.CalibBand = 4
	}
	return m
}

func (m MachineSpec) validate() error {
	if m.CalibRefMops <= 0 {
		return fmt.Errorf("machine.json: calib_ref_mops must be positive, got %g", m.CalibRefMops)
	}
	if m.CalibBand != 0 && m.CalibBand < 1 {
		return fmt.Errorf("machine.json: calib_band must be >= 1, got %g", m.CalibBand)
	}
	if m.CoresMin < 0 {
		return fmt.Errorf("machine.json: cores_min must be >= 0, got %d", m.CoresMin)
	}
	return nil
}

// Host is the measured execution environment a check run calibrates.
type Host struct {
	// Cores is the host's logical CPU count.
	Cores int
	// CalibMops is the measured single-core calibration score.
	CalibMops float64
	// GoVersion stamps trend rows.
	GoVersion string
}

// Calibrate measures the current host: core count plus a ~100ms
// single-core integer-throughput kernel (cliutil.CalibScore). Trend rows
// record the score, so rows from differently powered hosts stay
// comparable.
func Calibrate() Host {
	return Host{
		Cores:     runtime.NumCPU(),
		CalibMops: cliutil.CalibScore(),
		GoVersion: runtime.Version(),
	}
}

// Fit reports whether the host fits the class envelope. On a fit it
// returns the goal scale factor (host calibration over the class
// reference); otherwise reason names what disqualified the host.
func (m MachineSpec) Fit(h Host) (scale float64, reason string) {
	spec := m.withDefaults()
	if h.Cores < spec.CoresMin {
		return 0, fmt.Sprintf("host has %d cores, class needs >= %d", h.Cores, spec.CoresMin)
	}
	if h.CalibMops <= 0 {
		return 0, "host calibration unavailable"
	}
	lo, hi := spec.CalibRefMops/spec.CalibBand, spec.CalibRefMops*spec.CalibBand
	if h.CalibMops < lo || h.CalibMops > hi {
		return 0, fmt.Sprintf("host calibration %.0f Mops/s outside class band [%.0f, %.0f]",
			h.CalibMops, lo, hi)
	}
	return h.CalibMops / spec.CalibRefMops, ""
}

// SweepSpec configures a sweep-target case: the figure-grid slice to
// stream through the daemon.
type SweepSpec struct {
	// Figures lists paper figures (4-7) whose grids the case sweeps.
	Figures []int `json:"figures"`
	// Nodes lists the node counts on the grid's system-size axis.
	Nodes []int `json:"nodes"`
	// Scale is the workload scale divisor (bench uses 64).
	Scale int `json:"scale,omitempty"`
	// Seed drives every cell (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Passes repeats the identical sweep: pass 1 is the cold measurement,
	// later passes must replay byte-identically from the result store and
	// feed the warm_speedup and cache_hit_rate goals (default 1).
	Passes int `json:"passes,omitempty"`
}

// LoadSpec configures a serve- or soak-target case: the loadgen traffic
// replayed against the daemon. Sweep counts (not wall durations) keep the
// case deterministic in shape.
type LoadSpec struct {
	// Clients is the number of concurrent X-Client identities.
	Clients int `json:"clients"`
	// Sweeps is the per-client sweep budget.
	Sweeps int `json:"sweeps"`
	// Cells is the cell count per generated sweep.
	Cells int `json:"cells"`
	// Workload is the workload spec of every cell (default
	// "constant:n=4096").
	Workload string `json:"workload,omitempty"`
	// Seed is the loadgen base seed (default 1); distinct seeds per cell
	// keep the target simulating instead of replaying its cache.
	Seed int64 `json:"seed,omitempty"`
}

// CaseSpec is one case.json.
type CaseSpec struct {
	// Description says what the case gates.
	Description string `json:"description,omitempty"`
	// Target selects the execution path: sweep, serve or soak.
	Target string `json:"target"`
	// Sweep configures a sweep-target case (required for that target).
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Load configures a serve/soak-target case (required for those).
	Load *LoadSpec `json:"load,omitempty"`
	// Goals declares the gates; at least one is required.
	Goals GoalSpec `json:"goals"`
}

// Case is one loaded, validated check.
type Case struct {
	// Name is the case directory name.
	Name string
	// Class is the owning machine class name.
	Class string
	// Spec is the parsed case.json.
	Spec CaseSpec
	// Goals are the normalized gates parsed from Spec.Goals.
	Goals []Goal
}

// CheckName is the qualified name verdicts carry: "<class>/<case>".
func (c *Case) CheckName() string { return c.Class + "/" + c.Name }

// Class is one machine class: its envelope and its cases, sorted by name
// so runs are ordered deterministically.
type Class struct {
	// Name is the class directory name.
	Name string
	// Machine is the parsed machine.json.
	Machine MachineSpec
	// Cases lists the class's checks in name order.
	Cases []*Case
}

// Tree is a loaded checks/ directory.
type Tree struct {
	// Dir is the tree root the classes were loaded from.
	Dir string
	// Classes lists every machine class in name order.
	Classes []*Class
}

// Class resolves a machine class by name; unknown classes are a named
// error listing what exists.
func (t *Tree) Class(name string) (*Class, error) {
	for _, c := range t.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	var have []string
	for _, c := range t.Classes {
		have = append(have, c.Name)
	}
	return nil, fmt.Errorf("checks: unknown machine class %q (have: %s)",
		name, strings.Join(have, ", "))
}

// reservedDirs are checks/ entries that are not machine classes.
var reservedDirs = map[string]bool{"trend": true}

// Load reads and validates a checks/ tree. Every error names the class,
// case and field that broke, so a bad goal unit fails as
// "checks: case quick/fig4-grid: goal rss_max: bad size ..." rather than
// an anonymous unmarshal error.
func Load(dir string) (*Tree, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	tree := &Tree{Dir: dir}
	for _, e := range entries {
		if !e.IsDir() || reservedDirs[e.Name()] || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		class, err := loadClass(dir, e.Name())
		if err != nil {
			return nil, err
		}
		tree.Classes = append(tree.Classes, class)
	}
	if len(tree.Classes) == 0 {
		return nil, fmt.Errorf("checks: no machine classes under %s", dir)
	}
	sort.Slice(tree.Classes, func(i, j int) bool { return tree.Classes[i].Name < tree.Classes[j].Name })
	return tree, nil
}

func loadClass(dir, name string) (*Class, error) {
	class := &Class{Name: name}
	if err := readStrictJSON(filepath.Join(dir, name, "machine.json"), &class.Machine); err != nil {
		return nil, fmt.Errorf("checks: class %s: %w", name, err)
	}
	if err := class.Machine.validate(); err != nil {
		return nil, fmt.Errorf("checks: class %s: %w", name, err)
	}
	casesDir := filepath.Join(dir, name, "cases")
	entries, err := os.ReadDir(casesDir)
	if err != nil {
		return nil, fmt.Errorf("checks: class %s: %w", name, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		c, err := loadCase(casesDir, name, e.Name())
		if err != nil {
			return nil, err
		}
		class.Cases = append(class.Cases, c)
	}
	if len(class.Cases) == 0 {
		return nil, fmt.Errorf("checks: class %s: no cases under %s", name, casesDir)
	}
	sort.Slice(class.Cases, func(i, j int) bool { return class.Cases[i].Name < class.Cases[j].Name })
	return class, nil
}

func loadCase(casesDir, className, caseName string) (*Case, error) {
	c := &Case{Name: caseName, Class: className}
	fail := func(err error) (*Case, error) {
		return nil, fmt.Errorf("checks: case %s/%s: %w", className, caseName, err)
	}
	if err := readStrictJSON(filepath.Join(casesDir, caseName, "case.json"), &c.Spec); err != nil {
		return fail(err)
	}
	passes := 1
	switch c.Spec.Target {
	case TargetSweep:
		if c.Spec.Sweep == nil {
			return fail(fmt.Errorf("target sweep needs a \"sweep\" block"))
		}
		if c.Spec.Load != nil {
			return fail(fmt.Errorf("target sweep does not take a \"load\" block"))
		}
		s := c.Spec.Sweep
		if s.Passes != 0 {
			passes = s.Passes
		}
		if passes < 1 {
			return fail(fmt.Errorf("sweep.passes must be >= 1, got %d", s.Passes))
		}
		if _, err := GridCells(s.Figures, s.Nodes, s.scale(), s.seed()); err != nil {
			return fail(err)
		}
	case TargetServe, TargetSoak:
		if c.Spec.Load == nil {
			return fail(fmt.Errorf("target %s needs a \"load\" block", c.Spec.Target))
		}
		if c.Spec.Sweep != nil {
			return fail(fmt.Errorf("target %s does not take a \"sweep\" block", c.Spec.Target))
		}
		l := c.Spec.Load
		if l.Clients <= 0 || l.Sweeps <= 0 || l.Cells <= 0 {
			return fail(fmt.Errorf("load needs positive clients/sweeps/cells, got %d/%d/%d",
				l.Clients, l.Sweeps, l.Cells))
		}
		if _, err := workload.ParseSpec(l.workload(), l.seed()); err != nil {
			return fail(fmt.Errorf("load.workload: %w", err))
		}
	case "":
		return fail(fmt.Errorf("missing target (sweep, serve or soak)"))
	default:
		return fail(fmt.Errorf("unknown target %q (sweep, serve or soak)", c.Spec.Target))
	}
	goals, err := c.Spec.Goals.parseGoals(c.Spec.Target, passes)
	if err != nil {
		return fail(err)
	}
	c.Goals = goals
	return c, nil
}

func (s *SweepSpec) scale() int {
	if s.Scale == 0 {
		return 64
	}
	return s.Scale
}

func (s *SweepSpec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

func (s *SweepSpec) passes() int {
	if s.Passes == 0 {
		return 1
	}
	return s.Passes
}

func (l *LoadSpec) workload() string {
	if l.Workload == "" {
		return "constant:n=4096"
	}
	return l.Workload
}

func (l *LoadSpec) seed() int64 {
	if l.Seed == 0 {
		return 1
	}
	return l.Seed
}

// readStrictJSON decodes one JSON file rejecting unknown fields, so a
// typoed goal name fails the load instead of silently gating nothing.
func readStrictJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// cellsFor rebuilds a sweep case's cell list (validated at load time).
func (s *SweepSpec) cellsFor() []hdls.Config {
	cells, err := GridCells(s.Figures, s.Nodes, s.scale(), s.seed())
	if err != nil { // validated by loadCase; cannot fail here
		panic(fmt.Sprintf("checks: %v", err))
	}
	return cells
}
