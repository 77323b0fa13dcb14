// Package hdls is the public experiment API of the hierarchical dynamic
// loop self-scheduling reproduction (Eleliemy & Ciorba, arXiv:1903.09510).
// It wires the simulated miniHPC cluster, the paper's two applications
// (Mandelbrot and PSIA) and the two hierarchical executors (MPI+MPI and
// MPI+OpenMP) into single-call experiments and whole-figure sweeps.
//
// A minimal run:
//
//	res, err := hdls.Run(hdls.Config{
//	    App: hdls.Mandelbrot, Nodes: 4,
//	    Inter: dls.GSS, Intra: dls.STATIC,
//	    Approach: hdls.MPIMPI,
//	})
//
// Figures 4–7 of the paper are regenerated with RunFigure.
package hdls

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Topology customizes the simulated machine relative to the miniHPC preset.
// The zero value is the paper's homogeneous 16-core Xeon configuration.
// Patterns shorter than the node count are tiled (e.g. {1, 0.5} alternates
// full- and half-speed nodes).
type Topology struct {
	// NodeSpeeds holds relative per-node core speeds (1.0 = Xeon reference
	// core). Chunk execution time divides by the host node's speed.
	NodeSpeeds []float64 `json:"node_speeds,omitempty"`
	// NodeCores holds per-node core counts (e.g. {16, 64} alternates Xeon
	// and KNL partitions). Config.WorkersPerNode acts as a per-node cap.
	NodeCores []int `json:"node_cores,omitempty"`
}

// IsZero reports whether the topology is the paper default.
func (t Topology) IsZero() bool { return len(t.NodeSpeeds) == 0 && len(t.NodeCores) == 0 }

// String renders the topology for scenario labels ("miniHPC", or the
// deviation from it).
func (t Topology) String() string {
	if t.IsZero() {
		return "miniHPC"
	}
	s := "miniHPC"
	if len(t.NodeSpeeds) > 0 {
		s += fmt.Sprintf(" speeds=%v", t.NodeSpeeds)
	}
	if len(t.NodeCores) > 0 {
		s += fmt.Sprintf(" cores=%v", t.NodeCores)
	}
	return s
}

// apply projects the topology onto a cluster description of cl.Nodes nodes.
func (t Topology) apply(cl *cluster.Config) {
	if t.IsZero() {
		return
	}
	cl.Name += "-custom"
	if len(t.NodeSpeeds) > 0 {
		cl.NodeSpeed = make([]float64, cl.Nodes)
		for i := range cl.NodeSpeed {
			cl.NodeSpeed[i] = t.NodeSpeeds[i%len(t.NodeSpeeds)]
		}
	}
	if len(t.NodeCores) > 0 {
		cl.NodeCores = make([]int, cl.Nodes)
		for i := range cl.NodeCores {
			cl.NodeCores[i] = t.NodeCores[i%len(t.NodeCores)]
		}
	}
}

// Perturbation re-exports the scenario perturbation description
// (system noise, transient slowdowns, per-node background load); see
// internal/perturb for the replay-determinism contract.
type Perturbation = perturb.Config

// Approach re-exports the executor selection.
type Approach = core.Approach

// The available approaches.
const (
	MPIMPI          = core.MPIMPI
	MPIOpenMP       = core.MPIOpenMP
	MPIOpenMPNoWait = core.MPIOpenMPNoWait
)

// App selects the workload application.
type App int

// The paper's two applications.
const (
	// Mandelbrot: escape-time kernel, highly imbalanced (§4).
	Mandelbrot App = iota
	// PSIA: parallel spin-image generation, mildly imbalanced (§4).
	PSIA
)

// String returns the application name ("Mandelbrot", "PSIA").
func (a App) String() string {
	switch a {
	case Mandelbrot:
		return "Mandelbrot"
	case PSIA:
		return "PSIA"
	}
	return fmt.Sprintf("App(%d)", int(a))
}

// ParseApp maps an application name to its App value.
func ParseApp(s string) (App, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mandelbrot", "mandel":
		return Mandelbrot, nil
	case "psia", "spinimage", "spin-image":
		return PSIA, nil
	}
	return 0, fmt.Errorf("hdls: unknown application %q", s)
}

// Config describes one experiment. Zero values select the paper defaults:
// 16 workers per node, scale 8 (fast), seed 1.
type Config struct {
	// App selects the paper workload (Mandelbrot or PSIA); Workload and
	// Profile override it.
	App App `json:"app"`
	// Nodes is the simulated compute-node count (default 4).
	Nodes int `json:"nodes,omitempty"`
	// WorkersPerNode defaults to 16, the paper's configuration.
	WorkersPerNode int `json:"workers_per_node,omitempty"`
	// Inter is the DLS technique at the inter-node level.
	Inter dls.Technique `json:"inter"`
	// Intra is the DLS technique at the intra-node level.
	Intra dls.Technique `json:"intra"`
	// Approach selects the executor (MPI+MPI, MPI+OpenMP, or the no-wait
	// variant).
	Approach Approach `json:"approach"`
	// Scale divides the workload (N and total work together, preserving
	// per-iteration granularity). 1 is the full experiment size; the
	// default 8 keeps single runs interactive.
	Scale int `json:"scale,omitempty"`
	// Seed drives the engine RNG; runs are bit-deterministic per seed.
	Seed int64 `json:"seed,omitempty"`
	// Profile overrides App with a custom workload. It is a programmatic
	// escape hatch only: JSON round-trips drop it (Hash still folds it in).
	Profile *workload.Profile `json:"-"`
	// Workload, when non-empty, overrides App with a synthetic workload
	// spec parsed by workload.ParseSpec (e.g. "gaussian:n=8192,cv=0.5").
	// Profile takes precedence over both.
	Workload string `json:"workload,omitempty"`
	// Topology customizes node speeds and core counts; the zero value is
	// the paper's homogeneous machine.
	Topology Topology `json:"topology,omitzero"`
	// Perturbation injects system noise, transient slowdowns, and
	// background load; the zero value keeps the machine smooth.
	Perturbation Perturbation `json:"perturbation,omitzero"`
	// ExtendedRuntime enables TSS/FAC2 intra-node under MPI+OpenMP.
	ExtendedRuntime bool `json:"extended_runtime,omitempty"`
	// CollectTrace records the full event trace. Summary-returning paths
	// ignore it, so Canonical clears it.
	CollectTrace bool `json:"collect_trace,omitempty"`
	// NoiseCV adds systemic variability (0 = deterministic machine).
	NoiseCV float64 `json:"noise_cv,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 16
	}
	if c.Scale == 0 {
		c.Scale = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is the outcome of one experiment.
type Result = core.Result

// profileFor resolves the workload.
func profileFor(c Config) (*workload.Profile, error) {
	if c.Profile != nil {
		return c.Profile, nil
	}
	if c.Workload != "" {
		return workload.ParseSpec(c.Workload, c.Seed)
	}
	switch c.App {
	case PSIA:
		return workload.PSIAProfile(c.Scale), nil
	default:
		return workload.MandelbrotProfile(c.Scale), nil
	}
}

// coreConfig resolves cfg into the executor configuration.
func coreConfig(cfg Config) (core.Config, error) {
	// Reject nonsense sizes up front with a clear error: negative counts
	// would otherwise panic deep inside cluster/topology slice allocation.
	if cfg.Nodes < 0 {
		return core.Config{}, fmt.Errorf("hdls: Nodes must be >= 1 (got %d)", cfg.Nodes)
	}
	if cfg.WorkersPerNode < 0 {
		return core.Config{}, fmt.Errorf("hdls: WorkersPerNode must be >= 1 (got %d)", cfg.WorkersPerNode)
	}
	if cfg.Scale < 0 {
		return core.Config{}, fmt.Errorf("hdls: Scale must be >= 1 (got %d)", cfg.Scale)
	}
	c := cfg.withDefaults()
	cl := cluster.MiniHPC(c.Nodes)
	cl.NoiseCV = c.NoiseCV
	c.Topology.apply(&cl)
	prof, err := profileFor(c)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Cluster:         cl,
		WorkersPerNode:  c.WorkersPerNode,
		Inter:           c.Inter,
		Intra:           c.Intra,
		Workload:        prof,
		Approach:        c.Approach,
		Seed:            c.Seed,
		Perturb:         c.Perturbation,
		ExtendedRuntime: c.ExtendedRuntime,
		CollectTrace:    c.CollectTrace,
	}, nil
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	return core.Run(cc)
}

// RunSummary executes one experiment returning only the compact per-cell
// scalars (core.Summary). The sweep drivers use it so thousand-cell sweeps
// aggregate incrementally instead of retaining per-worker slices.
func RunSummary(cfg Config) (Summary, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return Summary{}, err
	}
	return core.RunSummary(cc)
}

// RunSummaryCtx is RunSummary with cancellation: when ctx is canceled the
// in-flight simulation aborts within a few hundred events and the context's
// error is returned. A run that completes is byte-identical to RunSummary —
// the engine only ever reads the cancellation flag — so services can hand
// every request's context down without weakening the determinism contract.
func RunSummaryCtx(ctx context.Context, cfg Config) (Summary, error) {
	if ctx == nil || ctx.Done() == nil {
		return RunSummary(cfg)
	}
	if err := ctx.Err(); err != nil {
		return Summary{}, err
	}
	cc, err := coreConfig(cfg)
	if err != nil {
		return Summary{}, err
	}
	var flag atomic.Bool
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	defer stop()
	cc.Interrupt = &flag
	sum, err := core.RunSummary(cc)
	if errors.Is(err, sim.ErrInterrupted) {
		if cerr := ctx.Err(); cerr != nil {
			return Summary{}, cerr
		}
	}
	return sum, err
}

// --------------------------------------------------------------- figures --

// FigureInter maps the paper's figure number to its first-level technique.
var FigureInter = map[int]dls.Technique{
	4: dls.STATIC,
	5: dls.GSS,
	6: dls.TSS,
	7: dls.FAC2,
}

// FigureIntras is the second-level technique set of every figure.
var FigureIntras = []dls.Technique{dls.STATIC, dls.SS, dls.GSS, dls.TSS, dls.FAC2}

// DefaultNodes is the paper's system-size sweep.
var DefaultNodes = []int{2, 4, 8, 16}

// FigureOptions configures a figure sweep.
type FigureOptions struct {
	// Scale is the workload scale divisor (default 8).
	Scale int
	// Nodes lists the system sizes to sweep (default 2,4,8,16).
	Nodes []int
	// Seed drives every cell's engine RNG (default 1).
	Seed int64
	// Extended fills in the MPI+OpenMP TSS/FAC2 cells the paper could not
	// run on the Intel runtime. Off by default for fidelity.
	Extended bool
	// Approaches defaults to {MPIMPI, MPIOpenMP}.
	Approaches []Approach
	// Progress, if non-nil, observes each completed cell. Cells run
	// concurrently (see Parallelism), so calls arrive in completion order,
	// serialized by the sweep.
	Progress func(cell string)
	// Parallelism bounds how many cells run concurrently. Each cell is an
	// independent simulation engine, so cells parallelize across host cores
	// without affecting results: every cell's outcome is a pure function of
	// its own Config, and results land in their (intra, nodes, approach)
	// slots regardless of completion order. 0 means GOMAXPROCS; 1 runs the
	// sweep sequentially.
	Parallelism int
}

// FigureResult holds a regenerated figure: Times[approach][intra][node
// index] in seconds, with NaN marking combinations that are unsupported
// (MPI+OpenMP with TSS/FAC2 intra on the stock runtime).
type FigureResult struct {
	// Figure is the paper figure number (4-7).
	Figure int
	// App is the panel's application.
	App App
	// Inter is the figure's first-level technique.
	Inter dls.Technique
	// Intras lists the second-level techniques, one block per entry.
	Intras []dls.Technique
	// Nodes lists the swept system sizes, one column per entry.
	Nodes []int
	// Approaches lists the executors compared, one row per entry.
	Approaches []Approach
	// Times holds the cells: Times[approach][intra index][node index]
	// in seconds, NaN for unsupported combinations.
	Times map[Approach][][]float64
}

// RunFigure regenerates one panel (one application) of the paper's Figure
// 4, 5, 6 or 7.
func RunFigure(figure int, app App, opt FigureOptions) (*FigureResult, error) {
	inter, ok := FigureInter[figure]
	if !ok {
		return nil, fmt.Errorf("hdls: no figure %d (4–7 exist)", figure)
	}
	if opt.Scale == 0 {
		opt.Scale = 8
	}
	if opt.Nodes == nil {
		opt.Nodes = DefaultNodes
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Approaches == nil {
		opt.Approaches = []Approach{MPIMPI, MPIOpenMP}
	}
	fr := &FigureResult{
		Figure:     figure,
		App:        app,
		Inter:      inter,
		Intras:     FigureIntras,
		Nodes:      opt.Nodes,
		Approaches: opt.Approaches,
		Times:      map[Approach][][]float64{},
	}
	for _, ap := range opt.Approaches {
		fr.Times[ap] = make([][]float64, len(fr.Intras))
		for i := range fr.Intras {
			fr.Times[ap][i] = make([]float64, len(opt.Nodes))
		}
	}
	// Enumerate the cells, then run them on a host-core worker pool. Each
	// cell is an independent engine, so only the figure-table slot it writes
	// is shared; results are deterministic regardless of completion order.
	type cell struct {
		ii, ni int
		ap     Approach
		name   string
	}
	var cells []cell
	for ii, intra := range fr.Intras {
		for ni, nodes := range opt.Nodes {
			for _, ap := range opt.Approaches {
				cellName := fmt.Sprintf("fig%d %v %v+%v %dn %v", figure, app, inter, intra, nodes, ap)
				supported := true
				if (ap == MPIOpenMP || ap == MPIOpenMPNoWait) && !opt.Extended {
					if intra == dls.TSS || intra == dls.FAC2 {
						supported = false // Intel runtime limitation (§5)
					}
				}
				if !supported {
					fr.Times[ap][ii][ni] = math.NaN()
					continue
				}
				cells = append(cells, cell{ii: ii, ni: ni, ap: ap, name: cellName})
			}
		}
	}

	err := runCells(len(cells), opt.Parallelism, func(i int) error {
		c := cells[i]
		res, err := RunSummary(Config{
			App: app, Nodes: opt.Nodes[c.ni], Inter: inter, Intra: fr.Intras[c.ii],
			Approach: c.ap, Scale: opt.Scale, Seed: opt.Seed,
			ExtendedRuntime: opt.Extended,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fr.Times[c.ap][c.ii][c.ni] = float64(res.ParallelTime)
		return nil
	}, func(i int) {
		if opt.Progress != nil {
			opt.Progress(cells[i].name)
		}
	})
	if err != nil {
		return nil, err
	}
	return fr, nil
}

// runCells runs cell(0) … cell(n-1) on a pool of p goroutines (0 means
// GOMAXPROCS, never more than n) and returns the error of the lowest-index
// failing cell, or nil. Cells start in index order, and once a cell has
// failed no later one starts, while every earlier one has already started
// and runs to the end: the error is the same at any p and in any
// completion order. done observes each cell that succeeded, serialized.
func runCells(n, p int, cell func(i int) error, done func(i int)) error {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex // guards errIdx, errVal and done calls
		errIdx int
		errVal error
		wg     sync.WaitGroup
	)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				stop := errVal != nil && errIdx < i
				mu.Unlock()
				if stop {
					return
				}
				err := cell(i)
				mu.Lock()
				if err == nil {
					done(i)
				} else if errVal == nil || i < errIdx {
					errIdx, errVal = i, err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errVal
}

// Table renders the figure as a text table shaped like the paper's panels:
// one block per intra-node technique, rows per approach, columns per
// system size.
func (fr *FigureResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d(%s): inter-node %v, %s, parallel loop time (s)\n",
		fr.Figure, strings.ToLower(fr.App.String()[:1]), fr.Inter, fr.App)
	fmt.Fprintf(&b, "%-22s", "intra \\ nodes")
	for _, n := range fr.Nodes {
		fmt.Fprintf(&b, "%10d", n)
	}
	b.WriteString("\n")
	for ii, intra := range fr.Intras {
		for _, ap := range fr.Approaches {
			fmt.Fprintf(&b, "%-8s %-13s", intra, ap)
			for ni := range fr.Nodes {
				v := fr.Times[ap][ii][ni]
				if math.IsNaN(v) {
					fmt.Fprintf(&b, "%10s", "n/a")
				} else {
					fmt.Fprintf(&b, "%10.3f", v)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// CSV renders the figure as CSV rows:
// figure,app,inter,intra,approach,nodes,seconds.
func (fr *FigureResult) CSV() string {
	var b strings.Builder
	b.WriteString("figure,app,inter,intra,approach,nodes,seconds\n")
	for ii, intra := range fr.Intras {
		for _, ap := range fr.Approaches {
			for ni, n := range fr.Nodes {
				v := fr.Times[ap][ii][ni]
				val := "NA"
				if !math.IsNaN(v) {
					val = fmt.Sprintf("%.6f", v)
				}
				fmt.Fprintf(&b, "%d,%s,%s,%s,%s,%d,%s\n",
					fr.Figure, fr.App, fr.Inter, intra, ap, n, val)
			}
		}
	}
	return b.String()
}

// Speedup returns MPI+OpenMP time / MPI+MPI time for one cell, the paper's
// comparison direction (>1 means the proposed approach wins). NaN when
// either cell is unavailable.
func (fr *FigureResult) Speedup(intra dls.Technique, nodes int) float64 {
	ii, ni := -1, -1
	for i, t := range fr.Intras {
		if t == intra {
			ii = i
		}
	}
	for i, n := range fr.Nodes {
		if n == nodes {
			ni = i
		}
	}
	if ii < 0 || ni < 0 {
		return math.NaN()
	}
	a, okA := fr.Times[MPIMPI]
	b, okB := fr.Times[MPIOpenMP]
	if !okA || !okB {
		return math.NaN()
	}
	return b[ii][ni] / a[ii][ni]
}

// Efficiency returns the parallel efficiency (ideal time / measured time,
// in (0, 1]) for one cell of the figure, using the figure app's workload at
// the given scale. NaN for unavailable cells.
func (fr *FigureResult) Efficiency(ap Approach, intra dls.Technique, nodes, scale, workersPerNode int) float64 {
	ii, ni := -1, -1
	for i, t := range fr.Intras {
		if t == intra {
			ii = i
		}
	}
	for i, n := range fr.Nodes {
		if n == nodes {
			ni = i
		}
	}
	times, ok := fr.Times[ap]
	if ii < 0 || ni < 0 || !ok {
		return math.NaN()
	}
	v := times[ii][ni]
	if math.IsNaN(v) || v <= 0 {
		return math.NaN()
	}
	return float64(IdealTime(fr.App, scale, nodes, workersPerNode)) / v
}

// EfficiencyTable renders per-cell parallel efficiency (1.00 = perfect),
// the scalability view of the figure.
func (fr *FigureResult) EfficiencyTable(scale, workersPerNode int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d %s — parallel efficiency (ideal/measured)\n", fr.Figure, fr.App)
	fmt.Fprintf(&b, "%-22s", "intra \\ nodes")
	for _, n := range fr.Nodes {
		fmt.Fprintf(&b, "%8d", n)
	}
	b.WriteString("\n")
	for _, intra := range fr.Intras {
		for _, ap := range fr.Approaches {
			fmt.Fprintf(&b, "%-8s %-13s", intra, ap)
			for _, n := range fr.Nodes {
				e := fr.Efficiency(ap, intra, n, scale, workersPerNode)
				if math.IsNaN(e) {
					fmt.Fprintf(&b, "%8s", "n/a")
				} else {
					fmt.Fprintf(&b, "%8.2f", e)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// IdealTime returns total work / total workers for the figure's app and a
// node count — the lower bound the paper's best configurations approach.
func IdealTime(app App, scale, nodes, workersPerNode int) sim.Time {
	prof, _ := profileFor(Config{App: app, Scale: scale}) // an app profile never fails
	return prof.Total() / sim.Time(nodes*workersPerNode)
}
