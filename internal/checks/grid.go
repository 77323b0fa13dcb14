package checks

import (
	"fmt"

	"repro/dls"
	"repro/hdls"
)

// GridCells enumerates a figure-grid slice exactly as hdls.RunFigure
// does — figure × application × intra-node technique × node count ×
// approach — skipping the MPI+OpenMP TSS/FAC2 cells the stock Intel
// runtime cannot run (DESIGN.md §5). It is the shared cell generator for
// the checks runner's sweep target and the benchmark's grid-cold workload
// (bench/), so both time the same cells. Unknown figures and empty axes
// are named errors, surfaced when the case is loaded rather than mid-run.
func GridCells(figures []int, nodes []int, scale int, seed int64) ([]hdls.Config, error) {
	if len(figures) == 0 {
		return nil, fmt.Errorf("sweep.figures must list at least one figure")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sweep.nodes must list at least one node count")
	}
	if scale <= 0 {
		return nil, fmt.Errorf("sweep.scale must be positive, got %d", scale)
	}
	for _, n := range nodes {
		if n <= 0 {
			return nil, fmt.Errorf("sweep.nodes entries must be positive, got %d", n)
		}
	}
	var cells []hdls.Config
	for _, fig := range figures {
		inter, ok := hdls.FigureInter[fig]
		if !ok {
			return nil, fmt.Errorf("sweep.figures: unknown figure %d (have 4-7)", fig)
		}
		for _, app := range []hdls.App{hdls.Mandelbrot, hdls.PSIA} {
			for _, intra := range hdls.FigureIntras {
				for _, n := range nodes {
					for _, ap := range []hdls.Approach{hdls.MPIMPI, hdls.MPIOpenMP} {
						if ap == hdls.MPIOpenMP && (intra == dls.TSS || intra == dls.FAC2) {
							continue // Intel runtime limitation (§5)
						}
						cells = append(cells, hdls.Config{
							App: app, Nodes: n, Inter: inter, Intra: intra,
							Approach: ap, Scale: scale, Seed: seed,
						})
					}
				}
			}
		}
	}
	return cells, nil
}
