// Package cliutil holds the small flag-parsing and profiling helpers the
// hdlsim and hdlsweep commands share, so the scenario flags (-speeds,
// -cores, -bg, -nodes) and the -cpuprofile/-memprofile instrumentation
// behave identically in both binaries.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// StartProfiles begins CPU profiling (when cpuPath is non-empty) and
// returns a stop function that finishes the CPU profile and, when memPath
// is non-empty, writes a heap profile. Perf work should start from a
// profile, not a guess: run the workload with these flags and feed the
// output to `go tool pprof`.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// CalibScore measures the host's current single-core integer throughput
// (millions of splitmix64 steps per second) with a fixed ~100 ms kernel.
// Perf snapshots record it next to cells/second so the bench-trend check
// can compare load-normalized throughput: absolute wall-clock numbers swing
// with neighbour load and host class, but the ratio of two workloads
// measured at the same moment does not.
func CalibScore() float64 {
	const iters = 40_000_000
	var acc uint64
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		acc ^= z ^ (z >> 31)
	}
	el := time.Since(start).Seconds()
	if acc == 42 { // keep the loop from being optimized away
		fmt.Fprintln(os.Stderr, "calib sentinel")
	}
	if el <= 0 {
		return 0
	}
	return float64(iters) / el / 1e6
}

// ParseFloats parses a comma-separated float list ("1,0.5").
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseNodeCounts parses the -nodes comma list strictly. Each element
// names one row of the sweep axis, so sloppy input that a lenient parser
// would paper over changes what actually runs: a duplicate ("8,8")
// silently runs a cell twice and skews aggregate output, a trailing comma
// ("8,8,") hides a dropped element, and embedded whitespace ("2, 4") is
// usually a shell-quoting accident. All three are rejected with errors
// naming the offending element instead of being normalized away.
func ParseNodeCounts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for i, part := range parts {
		if part == "" {
			return nil, fmt.Errorf("empty element at position %d in %q", i+1, s)
		}
		if trimmed := strings.TrimSpace(part); trimmed != part {
			return nil, fmt.Errorf("element %q contains whitespace; write it as %q", part, trimmed)
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		if seen[v] {
			return nil, fmt.Errorf("duplicate node count %d", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

// ParsePositiveInts parses a comma-separated list of positive integers
// ("16,64"), rejecting zero and negatives. Unlike ParseNodeCounts it
// tolerates whitespace and duplicates: it backs flags like -cores where
// repeated values are meaningful (per-node core counts).
func ParsePositiveInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
