package hdls

import (
	"fmt"
	"math"
	"strings"

	"repro/dls"
	"repro/internal/core"
)

// RobustnessTechniques is the default inter-node technique set of the
// robustness sweep: the paper's Figure 4–7 first-level techniques plus SS.
var RobustnessTechniques = []dls.Technique{dls.STATIC, dls.SS, dls.GSS, dls.TSS, dls.FAC2}

// RobustnessOptions configures one robustness sweep: a set of inter-node
// techniques executed under one scenario (topology × perturbation ×
// workload), scored by how evenly the nodes finish.
type RobustnessOptions struct {
	// Techniques are the inter-node techniques to compare
	// (default RobustnessTechniques).
	Techniques []dls.Technique
	// Intra is the intra-node technique used in every cell. The zero value
	// (STATIC) is the paper's lowest-overhead second level; cores within a
	// node are homogeneous, so the scenario axes act at the inter level.
	Intra dls.Technique
	// Nodes sizes the machine (default 4).
	Nodes int
	// WorkersPerNode sets each node's worker count (default 16).
	WorkersPerNode int
	// Approach defaults to MPIMPI, the paper's proposed executor.
	Approach Approach
	// App selects the paper workload, as in Config.
	App App
	// Scale divides the workload, as in Config (default 8).
	Scale int
	// Workload, when non-empty, overrides App with a spec string.
	Workload string
	// Seed drives every cell's engine RNG (default 1).
	Seed int64
	// Topology and Perturbation define the scenario; their zero values are
	// the smooth homogeneous paper machine.
	Topology Topology
	// Perturbation is the scenario's perturbation axis.
	Perturbation Perturbation
	// ExtendedRuntime permits TSS/FAC2 intra under the OpenMP approaches.
	ExtendedRuntime bool
	// Repeats replicates every technique cell under consecutive seeds
	// (Seed, Seed+1, …, Seed+Repeats−1); rows then report means over the
	// replicas plus the parallel-time spread. The default 1 reproduces the
	// single-seed sweep exactly.
	Repeats int
	// Parallelism bounds concurrent cells (0 = GOMAXPROCS, as in figures).
	Parallelism int
	// Progress, if non-nil, observes each completed cell (serialized).
	Progress func(cell string)
}

func (o RobustnessOptions) withDefaults() RobustnessOptions {
	if len(o.Techniques) == 0 {
		o.Techniques = RobustnessTechniques
	}
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.WorkersPerNode == 0 {
		o.WorkersPerNode = 16
	}
	if o.Scale == 0 {
		o.Scale = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	return o
}

// RobustnessRow scores one inter-node technique under the sweep's scenario.
// With Repeats > 1 the base fields are means over the seed replicas and the
// spread fields are populated.
type RobustnessRow struct {
	// Technique names the inter-node technique of this row.
	Technique string `json:"technique"`
	// ParallelTime is the paper's metric (seconds of virtual time).
	ParallelTime float64 `json:"parallel_time"`
	// NodeFinishCoV is the coefficient of variation of per-node finish
	// times — the sweep's robustness metric: 0 means every node finished
	// together; large values mean the technique failed to rebalance.
	NodeFinishCoV float64 `json:"node_finish_cov"`
	// LoadImbalance is max/mean − 1 over worker finish times.
	LoadImbalance float64 `json:"load_imbalance"`
	// GlobalChunks counts chunks issued by the global queue.
	GlobalChunks int `json:"global_chunks"`
	// LocalChunks counts sub-chunks issued at the intra-node level.
	LocalChunks int `json:"local_chunks"`
	// Repeats is the number of seed replicas folded into this row
	// (the spread fields below are populated only when it exceeds 1).
	Repeats int `json:"repeats,omitempty"`
	// MinTime is the fastest replica's parallel time.
	MinTime float64 `json:"min_time,omitempty"`
	// MaxTime is the slowest replica's parallel time.
	MaxTime float64 `json:"max_time,omitempty"`
	// TimeStdDev is the replica parallel-time standard deviation.
	TimeStdDev float64 `json:"time_stddev,omitempty"`
}

// RobustnessResult is one completed robustness sweep.
type RobustnessResult struct {
	// Scenario describes the topology and perturbation axes in effect.
	Scenario string `json:"scenario"`
	// Workload names the loop the sweep ran.
	Workload string `json:"workload"`
	// Nodes is the simulated machine size.
	Nodes int `json:"nodes"`
	// Workers is the per-node worker count.
	Workers int `json:"workers_per_node"`
	// Approach names the executor every cell used.
	Approach string `json:"approach"`
	// Intra names the intra-node technique every cell used.
	Intra string `json:"intra"`
	// Rows holds one scored row per inter-node technique, ranked most
	// robust (lowest NodeFinishCoV) first.
	Rows []RobustnessRow `json:"rows"`
}

// robustAcc folds one technique's replica summaries. The sweep keeps one
// compact Summary (a few scalars) per cell so the fold can run in cell
// order — deterministic at any parallelism — and nothing per-worker or
// per-node is ever retained.
type robustAcc struct {
	n                  int
	sumT, sumSqT       float64
	minT, maxT         float64
	sumCoV, sumImb     float64
	sumGlobal, sumLoca int
}

func (a *robustAcc) add(s core.Summary) {
	t := float64(s.ParallelTime)
	if a.n == 0 || t < a.minT {
		a.minT = t
	}
	if a.n == 0 || t > a.maxT {
		a.maxT = t
	}
	a.n++
	a.sumT += t
	a.sumSqT += t * t
	a.sumCoV += s.NodeFinishCoV
	a.sumImb += s.LoadImbalance
	a.sumGlobal += s.GlobalChunks
	a.sumLoca += s.LocalChunks
}

func (a *robustAcc) row(tech dls.Technique, repeats int) RobustnessRow {
	n := float64(a.n)
	row := RobustnessRow{
		Technique:     tech.String(),
		ParallelTime:  a.sumT / n,
		NodeFinishCoV: a.sumCoV / n,
		LoadImbalance: a.sumImb / n,
		GlobalChunks:  a.sumGlobal / a.n,
		LocalChunks:   a.sumLoca / a.n,
	}
	if repeats > 1 {
		row.Repeats = a.n
		row.MinTime = a.minT
		row.MaxTime = a.maxT
		if v := a.sumSqT/n - (a.sumT/n)*(a.sumT/n); v > 0 {
			row.TimeStdDev = math.Sqrt(v)
		}
	}
	return row
}

// RunRobustness executes the robustness sweep: every technique (× seed
// replica, with Repeats > 1) runs the identical scenario, and the resulting
// table ranks techniques by how well they absorb heterogeneity and
// perturbations. Cells run on a bounded worker pool and aggregate
// incrementally via compact summaries, so thousand-cell sweeps run flat in
// memory; results land in technique order regardless of completion order.
func RunRobustness(opt RobustnessOptions) (*RobustnessResult, error) {
	o := opt.withDefaults()
	rr := &RobustnessResult{
		Scenario: scenarioName(o),
		Workload: o.Workload,
		Nodes:    o.Nodes,
		Workers:  o.WorkersPerNode,
		Approach: o.Approach.String(),
		Intra:    o.Intra.String(),
		Rows:     make([]RobustnessRow, len(o.Techniques)),
	}
	if rr.Workload == "" {
		rr.Workload = o.App.String()
	}
	cells := len(o.Techniques) * o.Repeats
	// Per-cell compact summaries (scalars only — O(cells) in the number of
	// techniques × replicas, independent of machine or loop size); the fold
	// below runs in cell-index order so the floating-point reductions are
	// identical at any Parallelism.
	summaries := make([]core.Summary, cells)
	cellOf := func(i int) (dls.Technique, int64) {
		return o.Techniques[i%len(o.Techniques)], o.Seed + int64(i/len(o.Techniques))
	}
	err := runCells(cells, o.Parallelism, func(i int) error {
		tech, seed := cellOf(i)
		s, err := RunSummary(Config{
			App: o.App, Nodes: o.Nodes, WorkersPerNode: o.WorkersPerNode,
			Inter: tech, Intra: o.Intra, Approach: o.Approach,
			Scale: o.Scale, Seed: seed,
			Workload: o.Workload, Topology: o.Topology, Perturbation: o.Perturbation,
			ExtendedRuntime: o.ExtendedRuntime,
		})
		if err != nil {
			return fmt.Errorf("robustness %v seed %d: %w", tech, seed, err)
		}
		summaries[i] = s
		return nil
	}, func(i int) {
		if o.Progress != nil {
			tech, seed := cellOf(i)
			o.Progress(fmt.Sprintf("robust %v seed %d %s", tech, seed, rr.Scenario))
		}
	})
	if err != nil {
		return nil, err
	}
	accs := make([]robustAcc, len(o.Techniques))
	for i, s := range summaries {
		accs[i%len(o.Techniques)].add(s)
	}
	for i, tech := range o.Techniques {
		rr.Rows[i] = accs[i].row(tech, o.Repeats)
	}
	return rr, nil
}

func scenarioName(o RobustnessOptions) string {
	parts := []string{o.Topology.String()}
	if o.Perturbation.Enabled() {
		parts = append(parts, o.Perturbation.String())
	}
	return strings.Join(parts, " + ")
}

// spread reports whether the rows fold several seed replicas, and so
// carry the parallel-time spread.
func (rr *RobustnessResult) spread() bool {
	for _, r := range rr.Rows {
		if r.Repeats > 1 {
			return true
		}
	}
	return false
}

// Table renders the sweep as a text table ranking techniques under the
// scenario. Rows folded from several seed replicas add the parallel-time
// spread: the fastest and slowest replica and the standard deviation.
func (rr *RobustnessResult) Table() string {
	spread := rr.spread()
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness sweep — %s, workload %s, %d nodes × %d workers, %s (intra %s)\n",
		rr.Scenario, rr.Workload, rr.Nodes, rr.Workers, rr.Approach, rr.Intra)
	fmt.Fprintf(&b, "%-8s %14s %16s %14s %8s %8s",
		"inter", "parallel s", "node-finish CoV", "imbalance", "gchunks", "lchunks")
	if spread {
		fmt.Fprintf(&b, " %7s %14s %14s %14s", "seeds", "min s", "max s", "stddev s")
	}
	b.WriteByte('\n')
	for _, r := range rr.Rows {
		fmt.Fprintf(&b, "%-8s %14.6f %16.4f %14.4f %8d %8d",
			r.Technique, r.ParallelTime, r.NodeFinishCoV, r.LoadImbalance,
			r.GlobalChunks, r.LocalChunks)
		if spread {
			fmt.Fprintf(&b, " %7d %14.6f %14.6f %14.6f", r.Repeats, r.MinTime, r.MaxTime, r.TimeStdDev)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the sweep as CSV rows, with the Table's spread columns when
// the rows carry them.
func (rr *RobustnessResult) CSV() string {
	spread := rr.spread()
	var b strings.Builder
	b.WriteString("scenario,workload,nodes,workers,approach,intra,inter,parallel_s,node_finish_cov,imbalance,global_chunks,local_chunks")
	if spread {
		b.WriteString(",repeats,min_s,max_s,stddev_s")
	}
	b.WriteByte('\n')
	for _, r := range rr.Rows {
		fmt.Fprintf(&b, "%q,%q,%d,%d,%s,%s,%s,%.6f,%.4f,%.4f,%d,%d",
			rr.Scenario, rr.Workload, rr.Nodes, rr.Workers, rr.Approach, rr.Intra,
			r.Technique, r.ParallelTime, r.NodeFinishCoV, r.LoadImbalance,
			r.GlobalChunks, r.LocalChunks)
		if spread {
			fmt.Fprintf(&b, ",%d,%.6f,%.6f,%.6f", r.Repeats, r.MinTime, r.MaxTime, r.TimeStdDev)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
