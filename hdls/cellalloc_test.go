package hdls_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/dls"
	"repro/hdls"
)

// cellAllocShapes are the cells of the per-cell allocation gate: the
// benchmark's small cells under each executor and inter technique, and the
// largest cell of the paper's figure grid under both hybrid approaches.
// The trailing comments give the counts from before the simulated machine
// was pooled.
var cellAllocShapes = []struct {
	cfg  hdls.Config
	want float64
}{
	{smallAllocCell(hdls.MPIMPI, dls.STATIC), 0},        // 447
	{smallAllocCell(hdls.MPIMPI, dls.GSS), 0},           // 447
	{smallAllocCell(hdls.MPIMPI, dls.TSS), 0},           // 447
	{smallAllocCell(hdls.MPIMPI, dls.FAC2), 0},          // 447
	{smallAllocCell(hdls.MPIOpenMP, dls.STATIC), 0},     // 138
	{smallAllocCell(hdls.MPIOpenMP, dls.GSS), 0},        // 148
	{smallAllocCell(hdls.MPIOpenMP, dls.TSS), 0},        // 143
	{smallAllocCell(hdls.MPIOpenMP, dls.FAC2), 0},       // 158
	{smallAllocCell(hdls.MPIOpenMPNoWait, dls.FAC2), 0}, // 119
	{gridAllocCell(hdls.MPIMPI, dls.SS), 0},             // 13,493
	{gridAllocCell(hdls.MPIOpenMP, dls.GSS), 0},         // 2,455
}

// smallAllocCell is the benchmark's small cell: 2 nodes × 4 workers on
// 2,048 constant iterations, GSS within the node.
func smallAllocCell(ap hdls.Approach, inter dls.Technique) hdls.Config {
	return hdls.Config{
		Nodes: 2, WorkersPerNode: 4, Inter: inter, Intra: dls.GSS,
		Approach: ap, Workload: "constant:n=2048", Seed: 424242,
	}
}

// gridAllocCell is the figure grid's largest cell: PSIA at the benchmark
// scale on 16 nodes × 16 workers, GSS across nodes.
func gridAllocCell(ap hdls.Approach, intra dls.Technique) hdls.Config {
	return hdls.Config{
		App: hdls.PSIA, Nodes: 16, WorkersPerNode: 16, Scale: 64,
		Inter: dls.GSS, Intra: intra, Approach: ap,
	}
}

// TestCellAllocs pins the exact heap allocations of one whole cell through
// hdls.RunSummary on a warm arena. The simulated machine — ranks, threads,
// RMA issuers, collectives, communicators — is built once per pooled arena
// and reset in place per cell, and so are the cell's config copy and the
// summary's scratch (DESIGN.md §8). A count that grows means some layer
// builds its machines per cell again.
func TestCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes escape analysis and allocation counts")
	}
	// A collection empties sync.Pool, which would hand the measured cell a
	// cold arena.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, s := range cellAllocShapes {
		name := fmt.Sprintf("%v %v/%v %dx%d", s.cfg.Approach, s.cfg.Inter, s.cfg.Intra, s.cfg.Nodes, s.cfg.WorkersPerNode)
		run := func() {
			if _, err := hdls.RunSummary(s.cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		run() // warm the arena for this shape, and the workload memo
		if got := testing.AllocsPerRun(3, run); got != s.want {
			t.Errorf("%s: %v allocations per cell, want %v", name, got, s.want)
		}
	}
}
