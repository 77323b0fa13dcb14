package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// compareMain compares two -json result files, the base commit's runs and
// the change's, and prints a verdict per end-to-end metric and workload:
//
//	improved    the change wins at least 9 of 10 pairs (run i of each
//	            file is pair i; at least ten pairs) and its median beats
//	            the base median by more than the base's interquartile range
//	unresolved  either side's interquartile range over its median exceeds
//	            the metric's bound, and not every change run beats every
//	            base run
//	regressed   the change median is worse than the base median by more
//	            than the bound
//	unchanged   otherwise
//	failed      a run of the workload, on either side, failed a cell
//
// Bounds come from BENCHMARK.json. It exits 1 if anything regressed or
// failed, and refuses runs of different lengths: run length is fixed by the
// benchmark and must be the same on both sides.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rootDir := fs.String("root", "", "repository root holding BENCHMARK.json (default: nearest directory up holding cmd/hdlsd)")
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: bench compare [-root dir] base.ndjson change.ndjson") }
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	root, err := findRoot(*rootDir)
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	base, err := readResults(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	change, err := readResults(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	if err := sameLength(base, change); err != nil {
		return fail(err)
	}

	tw := tabwriter.NewWriter(stdout, 0, 2, 2, ' ', 0)
	header := []string{"workload"}
	for _, m := range spec.EndToEnd {
		header = append(header, m.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	var details []string
	bad := false
	for _, w := range workloads {
		a, b := base[w.name], change[w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		row := []string{w.name}
		if n := failedRuns(a) + failedRuns(b); n > 0 {
			for range spec.EndToEnd {
				row = append(row, "failed")
			}
			fmt.Fprintln(tw, strings.Join(row, "\t"))
			details = append(details, fmt.Sprintf("%s: %d of %d base and %d of %d change runs failed cells; nothing compared",
				w.name, failedRuns(a), len(a), failedRuns(b), len(b)))
			bad = true
			continue
		}
		for _, m := range spec.EndToEnd {
			c := compareMetric(pick(a, m.Name), pick(b, m.Name), m.Better == "lower", m.Bound)
			row = append(row, c.verdict)
			bad = bad || c.verdict == "regressed"
			details = append(details, fmt.Sprintf("%s %s: base median %.6g [%.6g, %.6g], change median %.6g [%.6g, %.6g], wins %d/%d, bound %g: %s",
				w.name, m.Name, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.wins, c.pairs, m.Bound, c.verdict))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, d := range details {
		fmt.Fprintln(stdout, d)
	}
	if bad {
		return 1
	}
	return 0
}

// readResults reads a -json file's untraced runs, grouped by workload in
// file order.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		r := &result{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// sameLength returns an error unless every run in both files measured the
// same number of seconds.
func sameLength(files ...map[string][]*result) error {
	var first *result
	for _, runs := range files {
		for _, w := range workloads {
			for _, r := range runs[w.name] {
				if first == nil {
					first = r
				} else if r.Seconds != first.Seconds {
					return fmt.Errorf("runs of different lengths: %s seed %d measured %gs, %s seed %d %gs",
						first.Workload, first.Seed, first.Seconds, r.Workload, r.Seed, r.Seconds)
				}
			}
		}
	}
	return nil
}

// failedRuns counts the runs in which a cell failed.
func failedRuns(runs []*result) int {
	n := 0
	for _, r := range runs {
		if !r.Correct || r.Failed > 0 {
			n++
		}
	}
	return n
}

func pick(runs []*result, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name]
	}
	return out
}

// comparison is one metric on one workload across the two files.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

func compareMetric(a, b []float64, lower bool, bound float64) comparison {
	c := comparison{pairs: min(len(a), len(b))}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	c.medA, c.medB = median(slices.Clone(a)), median(slices.Clone(b))
	// better(x, y) reports whether x beats y in the metric's direction.
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	gain := c.medB - c.medA
	if lower {
		gain = -gain
	}
	spread := max(ratio(c.q3A-c.q1A, c.medA), ratio(c.q3B-c.q1B, c.medB))
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case c.pairs >= 10 && 10*c.wins >= 9*c.pairs && gain > c.q3A-c.q1A:
		c.verdict = "improved"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case -gain > bound*c.medA:
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}
