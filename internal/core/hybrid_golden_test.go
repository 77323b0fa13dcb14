package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/dls"
	"repro/internal/perturb"
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
