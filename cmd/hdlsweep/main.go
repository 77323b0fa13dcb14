// Command hdlsweep regenerates the paper's evaluation: Figures 4–7 (both
// applications, all intra-node techniques, 2–16 nodes, both approaches).
// It prints the tables to stdout and optionally writes CSV files per
// figure, the inputs EXPERIMENTS.md is built from. Figure cells are
// independent simulations and run concurrently on the host's cores.
//
//	hdlsweep                    # all figures, quick scale (1/8)
//	hdlsweep -figure 5          # only Figure 5
//	hdlsweep -scale 1           # full-size workloads (minutes)
//	hdlsweep -extended          # fill the paper's n/a cells via the
//	                            # extended (libGOMP-style) OpenMP runtime
//
// The robustness mode compares inter-node techniques under a scenario
// (heterogeneous topology × perturbations × synthetic workload) instead of
// regenerating the figures:
//
//	hdlsweep -robust -speeds 1,0.5
//	hdlsweep -robust -speeds 1,0.45 -cores 16,64 -workers 64
//	hdlsweep -robust -noise 0.3 -slow-rate 5 -slow-factor 3 -slow-dur 0.01 \
//	         -workload "gaussian:n=8192,cv=0.5"
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/cliutil"
	"repro/internal/sim"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure to regenerate (4..7); 0 = all")
		scale    = flag.Int("scale", 8, "workload scale divisor (1 = full size)")
		nodesCSV = flag.String("nodes", "2,4,8,16", "comma-separated node counts")
		seed     = flag.Int64("seed", 1, "simulation seed")
		extended = flag.Bool("extended", false, "fill TSS/FAC2 intra cells for MPI+OpenMP")
		outDir   = flag.String("out", "", "directory for per-figure CSV files (optional)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress")
		withEff  = flag.Bool("eff", false, "also print parallel-efficiency tables")
		par      = flag.Int("p", 0, "max concurrent figure cells (0 = all cores)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf  = flag.String("memprofile", "", "write a heap profile to this path on exit")

		robust   = flag.Bool("robust", false, "run the robustness sweep (techniques × scenario) instead of the figures")
		repeat   = flag.Int("repeat", 1, "robust: seed replicas per technique (rows report means and spread)")
		workers  = flag.Int("workers", 16, "robust: workers per node (per-node cap on heterogeneous machines)")
		rnodes   = flag.Int("rnodes", 4, "robust: number of nodes")
		techCSV  = flag.String("techniques", "", "robust: comma-separated inter techniques (default STATIC,SS,GSS,TSS,FAC2)")
		intraS   = flag.String("intra", "STATIC", "robust: intra-node technique")
		speedCSV = flag.String("speeds", "", "relative node speeds, tiled (e.g. 1,0.5)")
		coreCSV  = flag.String("cores", "", "per-node core counts, tiled (e.g. 16,64)")
		noiseCV  = flag.Float64("noise", 0, "perturbation: multiplicative noise CoV")
		slowRate = flag.Float64("slow-rate", 0, "perturbation: transient slowdowns per second per node")
		slowFac  = flag.Float64("slow-factor", 2, "perturbation: slowdown execution-time multiplier")
		slowDur  = flag.Float64("slow-dur", 0.01, "perturbation: mean slowdown duration (seconds)")
		bgCSV    = flag.String("bg", "", "perturbation: per-node background load fractions, tiled (e.g. 0,0.3)")
		wlSpec   = flag.String("workload", "", "workload spec (workload.ParseSpec) overriding the app kernels")
	)
	flag.Parse()

	stopProf, err := cliutil.StartProfiles(*cpuProf, *memProf)
	fatalIf(err)
	defer stopProf()

	nodes, err := cliutil.ParseNodeCounts(*nodesCSV)
	if err != nil {
		fatalIf(fmt.Errorf("-nodes: %w (want positive counts, e.g. 2,4,8,16)", err))
	}
	if *rnodes < 1 {
		fatalIf(fmt.Errorf("-rnodes: node count must be >= 1 (got %d)", *rnodes))
	}

	if *robust {
		runRobust(robustFlags{
			workers: *workers, nodes: *rnodes, techCSV: *techCSV, intraS: *intraS,
			speedCSV: *speedCSV, coreCSV: *coreCSV, noise: *noiseCV,
			slowRate: *slowRate, slowFac: *slowFac, slowDur: *slowDur, bgCSV: *bgCSV,
			workload: *wlSpec, scale: *scale, seed: *seed, par: *par, repeat: *repeat,
			outDir: *outDir, quiet: *quiet,
		})
		return // the deferred stopProf finishes the profiles
	}

	figures := []int{4, 5, 6, 7}
	if *figure != 0 {
		figures = []int{*figure}
	}
	apps := []hdls.App{hdls.Mandelbrot, hdls.PSIA}

	start := time.Now()
	for _, fig := range figures {
		for _, app := range apps {
			opt := hdls.FigureOptions{
				Scale: *scale, Nodes: nodes, Seed: *seed, Extended: *extended,
				Parallelism: *par,
			}
			if !*quiet {
				opt.Progress = func(cell string) {
					fmt.Fprintf(os.Stderr, "  done %-55s (%6.1fs elapsed)\n", cell, time.Since(start).Seconds())
				}
			}
			fr, err := hdls.RunFigure(fig, app, opt)
			fatalIf(err)
			fmt.Println(fr.Table())
			if *withEff {
				fmt.Println(fr.EfficiencyTable(*scale, 16))
			}
			printRatios(fr)
			if *outDir != "" {
				fatalIf(os.MkdirAll(*outDir, 0o755))
				name := filepath.Join(*outDir, fmt.Sprintf("figure%d_%s.csv", fig, strings.ToLower(app.String())))
				fatalIf(os.WriteFile(name, []byte(fr.CSV()), 0o644))
				fmt.Printf("wrote %s\n\n", name)
			}
		}
	}
	fmt.Printf("sweep complete in %.1fs\n", time.Since(start).Seconds())
}

// printRatios summarizes each intra column as the MPI+OpenMP / MPI+MPI
// ratio (>1: proposed approach wins), the comparison the paper narrates.
func printRatios(fr *hdls.FigureResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "  speedup of MPI+MPI over MPI+OpenMP (×):")
	for _, intra := range fr.Intras {
		fmt.Fprintf(&b, "  %v:", intra)
		any := false
		for _, n := range fr.Nodes {
			s := fr.Speedup(intra, n)
			if s != s { // NaN
				continue
			}
			fmt.Fprintf(&b, " %.2f", s)
			any = true
		}
		if !any {
			b.WriteString(" n/a")
		}
	}
	fmt.Println(b.String())
	fmt.Println()
}

// robustFlags carries the parsed -robust mode flags.
type robustFlags struct {
	workers, nodes           int
	techCSV, intraS          string
	speedCSV, coreCSV, bgCSV string
	noise, slowRate, slowFac float64
	slowDur                  float64
	workload                 string
	scale                    int
	seed                     int64
	par, repeat              int
	outDir                   string
	quiet                    bool
}

// runRobust executes the scenario robustness sweep and writes its outputs.
func runRobust(f robustFlags) {
	start := time.Now()
	opt := hdls.RobustnessOptions{
		Nodes: f.nodes, WorkersPerNode: f.workers,
		Scale: f.scale, Seed: f.seed, Workload: f.workload,
		Parallelism: f.par, Repeats: f.repeat,
	}
	var err error
	opt.Intra, err = dls.Parse(f.intraS)
	fatalIf(err)
	if f.techCSV != "" {
		for _, name := range strings.Split(f.techCSV, ",") {
			t, err := dls.Parse(name)
			fatalIf(err)
			opt.Techniques = append(opt.Techniques, t)
		}
	}
	if f.speedCSV != "" {
		opt.Topology.NodeSpeeds, err = cliutil.ParseFloats(f.speedCSV)
		fatalIf(err)
	}
	if f.coreCSV != "" {
		opt.Topology.NodeCores, err = cliutil.ParsePositiveInts(f.coreCSV)
		fatalIf(err)
	}
	opt.Perturbation = hdls.Perturbation{
		NoiseCV:      f.noise,
		SlowdownRate: f.slowRate,
		Seed:         f.seed,
	}
	if f.slowRate > 0 {
		opt.Perturbation.SlowdownFactor = f.slowFac
		opt.Perturbation.SlowdownDuration = sim.Time(f.slowDur)
	}
	if f.bgCSV != "" {
		opt.Perturbation.BackgroundLoad, err = cliutil.ParseFloats(f.bgCSV)
		fatalIf(err)
	}
	if !f.quiet {
		opt.Progress = func(cell string) {
			fmt.Fprintf(os.Stderr, "  done %-55s (%6.1fs elapsed)\n", cell, time.Since(start).Seconds())
		}
	}
	rr, err := hdls.RunRobustness(opt)
	fatalIf(err)
	fmt.Print(rr.Table())
	if f.outDir != "" {
		fatalIf(os.MkdirAll(f.outDir, 0o755))
		name := filepath.Join(f.outDir, "robustness.csv")
		fatalIf(os.WriteFile(name, []byte(rr.CSV()), 0o644))
		fmt.Printf("wrote %s\n", name)
	}
	fmt.Printf("robustness sweep complete in %.1fs\n", time.Since(start).Seconds())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdlsweep:", err)
		os.Exit(1)
	}
}
