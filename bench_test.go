// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// panel (Figures 4–7 × {Mandelbrot, PSIA}) plus the Figure 2/3 barrier
// illustration and ablation benches for the design knobs DESIGN.md calls
// out (poll interval, queue capacity, nowait, extended runtime).
//
// Each figure bench runs the full sweep of its panel at a reduced scale
// (per-iteration granularity — and therefore every ratio — is preserved;
// see workload docs) and prints the series once in the paper's layout.
// Sweep cells execute on the host-core worker pool, so ns/op reflects the
// parallel sweep. Regenerate the full-scale numbers with:
// go run ./cmd/hdlsweep -scale 1. `make bench` runs the end-to-end
// benchmark of the hdlsd stack (bench/); kernel-level costs are isolated
// by the BenchmarkKernel* microbenchmarks in internal/sim.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/dls"
	"repro/hdls"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScale keeps figure benches interactive; cmd/hdlsweep does full size.
const benchScale = 64

var benchNodes = []int{2, 4}

var printOnce sync.Map

func printFigureOnce(b *testing.B, key string, fr *hdls.FigureResult) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", fr.Table())
	}
}

func benchFigure(b *testing.B, figure int, app hdls.App) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, err := hdls.RunFigure(figure, app, hdls.FigureOptions{
			Scale: benchScale,
			Nodes: benchNodes,
		})
		if err != nil {
			b.Fatal(err)
		}
		printFigureOnce(b, fmt.Sprintf("fig%d-%s", figure, app), fr)
	}
}

// Figure 4: STATIC at the inter-node level.
func BenchmarkFigure4Mandelbrot(b *testing.B) { benchFigure(b, 4, hdls.Mandelbrot) }
func BenchmarkFigure4PSIA(b *testing.B)       { benchFigure(b, 4, hdls.PSIA) }

// Figure 5: GSS at the inter-node level (the paper's headline numbers).
func BenchmarkFigure5Mandelbrot(b *testing.B) { benchFigure(b, 5, hdls.Mandelbrot) }
func BenchmarkFigure5PSIA(b *testing.B)       { benchFigure(b, 5, hdls.PSIA) }

// Figure 6: TSS at the inter-node level.
func BenchmarkFigure6Mandelbrot(b *testing.B) { benchFigure(b, 6, hdls.Mandelbrot) }
func BenchmarkFigure6PSIA(b *testing.B)       { benchFigure(b, 6, hdls.PSIA) }

// Figure 7: FAC2 at the inter-node level.
func BenchmarkFigure7Mandelbrot(b *testing.B) { benchFigure(b, 7, hdls.Mandelbrot) }
func BenchmarkFigure7PSIA(b *testing.B)       { benchFigure(b, 7, hdls.PSIA) }

// BenchmarkFigure2BarrierOverhead quantifies the implicit-barrier idle time
// of Figure 2: one node, STATIC intra, spiky workload — the accumulated
// barrier wait is the grey area of the paper's illustration.
func BenchmarkFigure2BarrierOverhead(b *testing.B) {
	prof := workload.Bimodal(2048, 50e-6, 2e-3, 0.1, 7)
	var barrier sim.Time
	for i := 0; i < b.N; i++ {
		res, err := hdls.Run(hdls.Config{
			Profile: prof, Nodes: 1, WorkersPerNode: 16,
			Inter: dls.GSS, Intra: dls.STATIC, Approach: hdls.MPIOpenMP,
		})
		if err != nil {
			b.Fatal(err)
		}
		barrier = res.BarrierWait
	}
	b.ReportMetric(float64(barrier), "barrier-s")
}

// BenchmarkFigure3NoBarrier is the companion measurement: the same loop
// under MPI+MPI has zero barrier time and a shorter makespan (t'end < tend).
func BenchmarkFigure3NoBarrier(b *testing.B) {
	prof := workload.Bimodal(2048, 50e-6, 2e-3, 0.1, 7)
	var makespan sim.Time
	for i := 0; i < b.N; i++ {
		res, err := hdls.Run(hdls.Config{
			Profile: prof, Nodes: 1, WorkersPerNode: 16,
			Inter: dls.GSS, Intra: dls.STATIC, Approach: hdls.MPIMPI,
		})
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.ParallelTime
	}
	b.ReportMetric(float64(makespan), "virtual-s")
}

// --- Ablations ---------------------------------------------------------

// ablationConfig builds the SS-intra stress configuration used by the lock
// ablations: fine-grained iterations on one 16-rank node.
func ablationConfig(prof *workload.Profile) core.Config {
	return core.Config{
		Cluster:        cluster.MiniHPC(1),
		WorkersPerNode: 16,
		Inter:          dls.GSS,
		Intra:          dls.SS,
		Workload:       prof,
		Approach:       core.MPIMPI,
		Seed:           1,
	}
}

// BenchmarkAblationPollInterval sweeps the lock-polling retry interval: the
// paper attributes the SS pathology to lock-attempt storms, so both very
// short (storm) and very long (grant latency) intervals should hurt.
func BenchmarkAblationPollInterval(b *testing.B) {
	prof := workload.Uniform(8192, 15e-6, 40e-6, 3)
	for _, poll := range []sim.Time{1e-6, 3e-6, 6e-6, 12e-6, 24e-6, 48e-6} {
		b.Run(fmt.Sprintf("poll=%.0fus", float64(poll)*1e6), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(prof)
				cfg.Cluster.Mem.PollInterval = poll
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				t = res.ParallelTime
			}
			b.ReportMetric(float64(t), "virtual-s")
		})
	}
}

// BenchmarkAblationQueueCapacity varies the local work-queue ring size.
// With fills serialized by the queue lock, capacity beyond one chunk should
// change little — evidence for the design choice in DESIGN.md.
func BenchmarkAblationQueueCapacity(b *testing.B) {
	prof := workload.Uniform(8192, 15e-6, 40e-6, 3)
	for _, cap := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(prof)
				cfg.Intra = dls.GSS
				cfg.QueueCapacity = cap
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				t = res.ParallelTime
			}
			b.ReportMetric(float64(t), "virtual-s")
		})
	}
}

// BenchmarkAblationNoWait compares the three executors on the
// barrier-dominated configuration — the paper's §6 future-work question.
func BenchmarkAblationNoWait(b *testing.B) {
	prof := workload.Exponential(8192, 150e-6, 1903)
	for _, app := range []core.Approach{core.MPIOpenMP, core.MPIOpenMPNoWait, core.MPIMPI} {
		b.Run(app.String(), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Cluster:        cluster.MiniHPC(2),
					WorkersPerNode: 16,
					Inter:          dls.GSS,
					Intra:          dls.STATIC,
					Workload:       prof,
					Approach:       app,
					Seed:           1,
				})
				if err != nil {
					b.Fatal(err)
				}
				t = res.ParallelTime
			}
			b.ReportMetric(float64(t), "virtual-s")
		})
	}
}

// BenchmarkAblationExtendedRuntime fills the cells the paper could not run
// (TSS/FAC2 intra under MPI+OpenMP) using the extended libGOMP-style
// runtime, quantifying what the Intel-runtime limitation cost the baseline.
func BenchmarkAblationExtendedRuntime(b *testing.B) {
	for _, intra := range []dls.Technique{dls.TSS, dls.FAC2} {
		b.Run(intra.String(), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				res, err := hdls.Run(hdls.Config{
					App: hdls.Mandelbrot, Nodes: 2, Scale: benchScale,
					Inter: dls.GSS, Intra: intra,
					Approach:        hdls.MPIOpenMP,
					ExtendedRuntime: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				t = res.ParallelTime
			}
			b.ReportMetric(float64(t), "virtual-s")
		})
	}
}

// BenchmarkAblationManycoreKNL is the what-if the paper leaves on the
// table: its remaining four miniHPC nodes are 64-core Xeon Phis. More,
// slower cores sharing one queue stress the lock protocol harder, so the
// SS-intra pathology deepens while GSS+STATIC stays near its (lower) ideal.
func BenchmarkAblationManycoreKNL(b *testing.B) {
	prof := workload.MandelbrotProfile(benchScale)
	for _, intra := range []dls.Technique{dls.STATIC, dls.SS} {
		b.Run("KNL/"+intra.String(), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Cluster:        cluster.MiniHPCKNL(2),
					WorkersPerNode: 64,
					Inter:          dls.GSS,
					Intra:          intra,
					Workload:       prof,
					Approach:       core.MPIMPI,
					Seed:           1,
				})
				if err != nil {
					b.Fatal(err)
				}
				t = res.ParallelTime
			}
			b.ReportMetric(float64(t), "virtual-s")
		})
	}
}

// BenchmarkAblationHeterogeneousAWF runs the weighted/adaptive extension on
// a heterogeneous cluster via the real-executor path: AWF is the paper's
// cited related work for exactly this setting.
func BenchmarkAblationHeterogeneousAWF(b *testing.B) {
	prof := workload.Uniform(4096, 50e-6, 150e-6, 11)
	for _, inter := range []dls.Technique{dls.GSS, dls.FAC2} {
		b.Run(inter.String(), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Cluster:        cluster.MiniHPCHetero(2, 1.0, 0.6),
					WorkersPerNode: 16,
					Inter:          inter,
					Intra:          dls.GSS,
					Workload:       prof,
					Approach:       core.MPIMPI,
					Seed:           1,
				})
				if err != nil {
					b.Fatal(err)
				}
				t = res.ParallelTime
			}
			b.ReportMetric(float64(t), "virtual-s")
		})
	}
}
