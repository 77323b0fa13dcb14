// Command hdlscheck runs the machine-class perf gates (internal/checks,
// DESIGN.md §14): it loads the declarative checks/ tree, calibrates the
// host against the requested machine class, executes every case through a
// live hdlsd — a fresh daemon subprocess per case, so the service gates
// its own serving path — appends one trend row per case to
// checks/trend/<class>.ndjson, and exits 1 if any named check fails:
//
//	hdlscheck -hdlsd bin/hdlsd -class quick
//	check quick/fig4-grid: PASS
//	check quick/serve-stream: FAIL: p99_stream_ms 312 > goal 250ms
//
// -hdlsd is required whenever cases run: a daemon that dies mid-case must
// fail its check by name, which only a subprocess can show. -list needs no
// daemon.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checks"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdlscheck: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		dir      = flag.String("dir", "checks", "checks tree root")
		class    = flag.String("class", "quick", "machine class to run")
		binary   = flag.String("hdlsd", "", "hdlsd binary; each case gets a fresh subprocess daemon (required unless -list)")
		workers  = flag.Int("workers", 0, "daemon worker pool per case (0 = GOMAXPROCS)")
		trendDir = flag.String("trend", "", "trend history directory (default <dir>/trend; \"none\" disables the append)")
		pidFile  = flag.String("daemon-pidfile", "", "write each case's live daemon PID here (for fault-injection harnesses)")
		list     = flag.Bool("list", false, "list classes and cases, run nothing")
		verbose  = flag.Bool("v", false, "stream daemon logs to stderr")
	)
	flag.Parse()

	tree, err := checks.Load(*dir)
	if err != nil {
		fatalf("%v", err)
	}
	trend := *trendDir
	if trend == "" {
		trend = filepath.Join(*dir, "trend")
	}

	if *list {
		for _, cl := range tree.Classes {
			fmt.Printf("%s (calib ref %.0f Mops/s, band %.0fx)\n",
				cl.Name, cl.Machine.CalibRefMops, cl.Machine.CalibBand)
			for _, c := range cl.Cases {
				fmt.Printf("  %-24s %-6s %s\n", c.Name, c.Spec.Target, c.Spec.Description)
			}
		}
		return
	}

	if *binary == "" {
		fatalf("-hdlsd is required to run cases (build one with: go build -o bin/hdlsd ./cmd/hdlsd)")
	}
	cl, err := tree.Class(*class)
	if err != nil {
		fatalf("%v", err)
	}
	exec := &checks.DaemonExecutor{Binary: *binary, Workers: *workers, PidFile: *pidFile}
	if *verbose {
		exec.Stderr = os.Stderr
	}

	host := checks.Calibrate()
	fmt.Printf("hdlscheck: class %s on host: %d cores, calib %.0f Mops/s, %s\n",
		cl.Name, host.Cores, host.CalibMops, host.GoVersion)

	runner := &checks.Runner{Exec: exec, Host: host, Log: os.Stdout}
	results := runner.RunClass(cl)

	if trend != "none" {
		rows := checks.RowsFromResults(host, time.Now(), results)
		path := filepath.Join(trend, cl.Name+".ndjson")
		if err := checks.AppendRows(path, rows); err != nil {
			fatalf("%v", err)
		}
	}

	counts := map[string]int{}
	var failed []checks.Result
	for _, res := range results {
		counts[res.Status]++
		if res.Failed() {
			failed = append(failed, res)
		}
	}
	fmt.Printf("hdlscheck: %d pass, %d fail, %d skip\n",
		counts[checks.StatusPass], counts[checks.StatusFail], counts[checks.StatusSkip])
	if len(failed) > 0 {
		sort.Slice(failed, func(i, j int) bool { return failed[i].Check < failed[j].Check })
		for _, res := range failed {
			fmt.Fprintln(os.Stderr, res.Summary())
		}
		os.Exit(1)
	}
}
