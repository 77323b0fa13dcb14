// Bench-grid golden: the paper's 256-cell Figure 4–7 grid (both apps, every
// figure intra technique, 2/4/8/16 nodes, both approaches, scale 64, seed 1)
// frozen cell by cell. The kernel and scenario goldens cover small machines
// only; this pins the bench-scale cells whose virtual times the BENCH
// snapshots publish, so any drift in them fails tier-1 and names the cell.
package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/hdls"
	"repro/internal/checks"
)

var printGridGolden = flag.Bool("print-grid-golden", false,
	"print the current bench-grid golden table instead of asserting")

// gridGoldenCells is the frozen grid, in checks.GridCells order.
func gridGoldenCells(t *testing.T) []hdls.Config {
	t.Helper()
	cells, err := checks.GridCells([]int{4, 5, 6, 7}, []int{2, 4, 8, 16}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// gridCellName labels a cell for failure messages.
func gridCellName(c hdls.Config) string {
	return fmt.Sprintf("%v/%v+%v/%dn/%v", c.App, c.Inter, c.Intra, c.Nodes, c.Approach)
}

// gridCellHash is the first 16 hex digits of the SHA-256 of the cell's
// json.Marshal'd summary.
func gridCellHash(line []byte) string {
	sum := sha256.Sum256(line)
	return hex.EncodeToString(sum[:8])
}

func TestGridGoldenEquivalence(t *testing.T) {
	cells := gridGoldenCells(t)
	lines := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s, err := hdls.RunSummary(cells[i])
				if err == nil {
					lines[i], err = json.Marshal(s)
				}
				errs[i] = err
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	all := sha256.New()
	for i, line := range lines {
		if errs[i] != nil {
			t.Fatalf("cell %d %s: %v", i, gridCellName(cells[i]), errs[i])
		}
		all.Write(line)
		all.Write([]byte{'\n'})
	}
	if *printGridGolden {
		fmt.Println("var gridGoldenWant = []string{")
		for i, line := range lines {
			fmt.Printf("\t%q, // %d %s\n", gridCellHash(line), i, gridCellName(cells[i]))
		}
		fmt.Println("}")
		fmt.Printf("// grid sha256 %x\n", all.Sum(nil))
		return
	}
	if len(gridGoldenWant) != len(cells) {
		t.Fatalf("grid has %d cells, golden table %d (run with -print-grid-golden)", len(cells), len(gridGoldenWant))
	}
	for i, line := range lines {
		if got := gridCellHash(line); got != gridGoldenWant[i] {
			t.Errorf("cell %d %s diverged from the frozen grid: hash %s, want %s\n%s",
				i, gridCellName(cells[i]), got, gridGoldenWant[i], line)
		}
	}
}
