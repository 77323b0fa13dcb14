package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/dls"
	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/workload"
)

var printHybridGolden = flag.Bool("print-hybrid-golden", false,
	"print the current hybrid-executor golden table instead of asserting")

// hybridClause is one OpenMP schedule clause the hybrid goldens cover.
type hybridClause struct {
	name  string
	intra dls.Technique
	chunk int // schedule-clause chunk argument (static,k)
}

var hybridClauses = []hybridClause{
	{"static", dls.STATIC, 0},
	{"static,7", dls.STATIC, 7},
	{"dynamic", dls.SS, 0},
	{"guided", dls.GSS, 0},
	{"tss", dls.TSS, 0},
	{"fac2", dls.FAC2, 0},
	{"random", dls.RND, 0},
}

// allInter is every inter-node technique the executors accept (the
// adaptive AWF/AF family exists only at the dls reference level and is
// rejected by Config.Validate).
var allInter = []dls.Technique{
	dls.STATIC, dls.SS, dls.FSC, dls.GSS, dls.TSS, dls.FAC, dls.FAC2,
	dls.WF, dls.TFSS, dls.RND,
}

// fuzzIntra is the intra-level pool (the executors accept a subset of the
// techniques at the intra level, see intraSupported).
var fuzzIntra = []dls.Technique{
	dls.STATIC, dls.SS, dls.FSC, dls.GSS, dls.TSS, dls.FAC, dls.FAC2, dls.TFSS, dls.RND,
}

// fuzzConfig draws one randomized cell: topology (node count, heterogeneous
// speeds and core counts), perturbations (noise, transient slowdowns,
// background load) and workload are all fuzzed. The hybrid goldens draw
// their machines through it, so changing its draws means regenerating them.
func fuzzConfig(rng *rand.Rand, inter dls.Technique) Config {
	nodes := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
	cl := cluster.MiniHPC(nodes)
	if rng.Intn(3) == 0 { // heterogeneous speeds, tiled like -speeds
		pat := [][]float64{{1, 0.5}, {1, 0.45, 2}}[rng.Intn(2)]
		sp := make([]float64, nodes)
		for i := range sp {
			sp[i] = pat[i%len(pat)]
		}
		cl.NodeSpeed = sp
	}
	if rng.Intn(4) == 0 { // heterogeneous core counts
		cores := make([]int, nodes)
		for i := range cores {
			cores[i] = []int{4, 8, 16}[rng.Intn(3)]
		}
		cl.NodeCores = cores
	}
	var pc perturb.Config
	switch rng.Intn(4) {
	case 0:
		pc.NoiseCV = []float64{0.1, 0.3, 0.7}[rng.Intn(3)]
	case 1:
		pc.SlowdownRate = 50
		pc.SlowdownFactor = 2 + rng.Float64()*2
		pc.SlowdownDuration = 0.005
	case 2:
		pc.NoiseCV = 0.2
		pc.BackgroundLoad = []float64{0, rng.Float64() * 0.4}
	}
	n := 512 + rng.Intn(4096)
	var prof *workload.Profile
	if rng.Intn(2) == 0 {
		prof = workload.Uniform(n, 20e-6, 60e-6, rng.Int63n(1e6)+1)
	} else {
		prof = workload.Gaussian(n, 40e-6, 15e-6, rng.Int63n(1e6)+1)
	}
	wpn := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
	if mc := cl.MaxCores(); wpn > mc {
		wpn = mc
	}
	cfg := Config{
		Cluster:        cl,
		WorkersPerNode: wpn,
		Inter:          inter,
		Intra:          fuzzIntra[rng.Intn(len(fuzzIntra))],
		Workload:       prof,
		Approach:       MPIMPI,
		Seed:           rng.Int63n(1e6) + 1,
		Perturb:        pc,
		CollectTrace:   true,
	}
	if ap := rng.Intn(4); ap < 2 {
		cfg.Approach = []Approach{MPIOpenMP, MPIOpenMPNoWait}[ap]
		cfg.ExtendedRuntime = true // admit the TSS/FAC2/RANDOM clauses too
		omp := []dls.Technique{dls.STATIC, dls.SS, dls.GSS, dls.TSS, dls.FAC2, dls.RND}
		cfg.Intra = omp[rng.Intn(len(omp))]
	}
	return cfg
}

// hybridGoldenCells returns the frozen hybrid cells: machines drawn by
// fuzzConfig from a per-cell seed, then pinned to both hybrid approaches
// and every clause, with cluster noise, transient slowdowns, background
// load and heterogeneous core counts forced on in rotation.
func hybridGoldenCells() []Config {
	cells := make([]Config, 24)
	for i := range cells {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		cfg := fuzzConfig(rng, allInter[i%len(allInter)])
		cfg.Approach = []Approach{MPIOpenMP, MPIOpenMPNoWait}[i%2]
		cl := hybridClauses[(i/2)%len(hybridClauses)]
		cfg.Intra, cfg.IntraChunk = cl.intra, cl.chunk
		cfg.ExtendedRuntime = true
		cfg.CollectTrace = true
		switch i % 4 {
		case 0:
			cfg.Cluster.NoiseCV = 0.2
		case 1:
			cfg.Perturb = perturb.Config{SlowdownRate: 50, SlowdownFactor: 3, SlowdownDuration: 0.005}
		case 2:
			cfg.Perturb = perturb.Config{NoiseCV: 0.3, BackgroundLoad: []float64{0, 0.3}}
		}
		if i%3 == 0 {
			cores := make([]int, cfg.Cluster.Nodes)
			for n := range cores {
				cores[n] = []int{16, 4, 8}[n%3]
			}
			cfg.Cluster.NodeCores = cores
		}
		cells[i] = cfg
	}
	return cells
}

// hybridDigest hashes every observable of a run: the scalars, the
// per-worker and per-node slices, and the full host-ordered trace.
func hybridDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v %v %v %d %d %v %v %v %d %d %d %d %v\n",
		r.Approach, r.Inter, r.Intra, r.Nodes, r.Workers, r.NodeWorkers,
		r.ParallelTime, r.LoadImbalance, r.GlobalChunks, r.LocalChunks,
		r.LockAttempts, r.LockAcquisitions, r.BarrierWait)
	fmt.Fprintf(h, "%v\n%v\n%v\n", r.WorkerFinish, r.WorkerCompute, r.NodeFinish)
	for _, ev := range r.Trace.Events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

func hybridCellName(i int, c Config) string {
	return fmt.Sprintf("%d %v %v/%s %dn×%dw seed=%d", i, c.Approach, c.Inter,
		hybridClauses[(i/2)%len(hybridClauses)].name, c.Cluster.Nodes, c.WorkersPerNode, c.Seed)
}

// TestHybridGoldenEquivalence freezes the MPI+OpenMP executors beyond the
// single kernel-golden cell each: result and full trace of 24 seeded cells.
func TestHybridGoldenEquivalence(t *testing.T) {
	cells := hybridGoldenCells()
	if *printHybridGolden {
		fmt.Println("var hybridGoldenWant = []string{")
	}
	for i, cfg := range cells {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", hybridCellName(i, cfg), err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", hybridCellName(i, cfg), err)
		}
		got := hybridDigest(res)
		if *printHybridGolden {
			fmt.Printf("\t%q, // %s\n", got, hybridCellName(i, cfg))
			continue
		}
		if i >= len(hybridGoldenWant) {
			t.Fatalf("no golden entry for cell %d (run with -print-hybrid-golden)", i)
		}
		if got != hybridGoldenWant[i] {
			t.Errorf("%s: digest %s, want %s", hybridCellName(i, cfg), got, hybridGoldenWant[i])
		}
	}
	if *printHybridGolden {
		fmt.Println("}")
	}
}
