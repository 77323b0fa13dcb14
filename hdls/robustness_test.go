package hdls

import (
	"strings"
	"testing"

	"repro/dls"
)

// TestRobustnessSpreadColumns pins the robustness Table and CSV: a
// single-seed sweep prints the means-only layout, byte for byte, and rows
// folded from several seed replicas add their replica count and
// parallel-time spread.
func TestRobustnessSpreadColumns(t *testing.T) {
	single := []RobustnessRow{
		{Technique: "GSS", ParallelTime: 0.0398, NodeFinishCoV: 0.0003, LoadImbalance: 0.0071, GlobalChunks: 297, LocalChunks: 3425},
		{Technique: "STATIC", ParallelTime: 0.2071, NodeFinishCoV: 0.6647, LoadImbalance: 4.5489, GlobalChunks: 4, LocalChunks: 64},
	}
	replicas := append([]RobustnessRow(nil), single...)
	replicas[0].Repeats, replicas[0].MinTime, replicas[0].MaxTime, replicas[0].TimeStdDev = 3, 0.0393, 0.0401, 0.000345
	replicas[1].Repeats, replicas[1].MinTime, replicas[1].MaxTime, replicas[1].TimeStdDev = 3, 0.1847, 0.2291, 0.018133
	const title = "Robustness sweep — miniHPC, workload Mandelbrot, 4 nodes × 16 workers, MPI+MPI (intra STATIC)\n"
	for _, tc := range []struct {
		name       string
		rows       []RobustnessRow
		table, csv string
	}{
		{
			name: "single seed",
			rows: single,
			table: title +
				"inter        parallel s  node-finish CoV      imbalance  gchunks  lchunks\n" +
				"GSS            0.039800           0.0003         0.0071      297     3425\n" +
				"STATIC         0.207100           0.6647         4.5489        4       64\n",
			csv: "scenario,workload,nodes,workers,approach,intra,inter,parallel_s,node_finish_cov,imbalance,global_chunks,local_chunks\n" +
				`"miniHPC","Mandelbrot",4,16,MPI+MPI,STATIC,GSS,0.039800,0.0003,0.0071,297,3425` + "\n" +
				`"miniHPC","Mandelbrot",4,16,MPI+MPI,STATIC,STATIC,0.207100,0.6647,4.5489,4,64` + "\n",
		},
		{
			name: "three seeds",
			rows: replicas,
			table: title +
				"inter        parallel s  node-finish CoV      imbalance  gchunks  lchunks   seeds          min s          max s       stddev s\n" +
				"GSS            0.039800           0.0003         0.0071      297     3425       3       0.039300       0.040100       0.000345\n" +
				"STATIC         0.207100           0.6647         4.5489        4       64       3       0.184700       0.229100       0.018133\n",
			csv: "scenario,workload,nodes,workers,approach,intra,inter,parallel_s,node_finish_cov,imbalance,global_chunks,local_chunks,repeats,min_s,max_s,stddev_s\n" +
				`"miniHPC","Mandelbrot",4,16,MPI+MPI,STATIC,GSS,0.039800,0.0003,0.0071,297,3425,3,0.039300,0.040100,0.000345` + "\n" +
				`"miniHPC","Mandelbrot",4,16,MPI+MPI,STATIC,STATIC,0.207100,0.6647,4.5489,4,64,3,0.184700,0.229100,0.018133` + "\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := RobustnessResult{
				Scenario: "miniHPC", Workload: "Mandelbrot", Nodes: 4, Workers: 16,
				Approach: "MPI+MPI", Intra: "STATIC", Rows: tc.rows,
			}
			if got := rr.Table(); got != tc.table {
				t.Errorf("Table:\n%s\nwant:\n%s", got, tc.table)
			}
			if got := rr.CSV(); got != tc.csv {
				t.Errorf("CSV:\n%s\nwant:\n%s", got, tc.csv)
			}
		})
	}
}

// TestRobustnessErrorIsLowestCell repeats a sweep in which every cell
// fails, on four workers, and requires one error text in every run: the
// lowest-index cell's, whatever order the cells finish in.
func TestRobustnessErrorIsLowestCell(t *testing.T) {
	const runs = 200
	var want string
	for run := 0; run < runs; run++ {
		_, err := RunRobustness(RobustnessOptions{Intra: dls.WF, Parallelism: 4})
		if err == nil {
			t.Fatal("a sweep with intra-node WF succeeded")
		}
		if run == 0 {
			want = err.Error()
			if !strings.HasPrefix(want, "robustness STATIC seed 1: ") {
				t.Fatalf("error %q does not name the first cell", want)
			}
		} else if err.Error() != want {
			t.Fatalf("run %d: error %q, first run %q", run, err, want)
		}
	}
}
