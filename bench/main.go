// Command bench is the benchmark of the hdlsd stack: it builds cmd/hdlsd,
// starts fresh daemons for each workload, drives them over HTTP from this
// one process, checks every cell line it receives, and prints each metric
// as "workload metric value unit" followed by one JSON result line.
//
//	bash bench/run.sh --workload grid-cold --seed 1              # end-to-end metrics
//	bash bench/run.sh --workload grid-cold --seed 1 --trace 1    # per-layer metrics + trace
//	bash bench/run.sh --seed 1 --json runs.ndjson                # every workload
//	bash bench/run.sh compare base.ndjson change.ndjson
//
// From the bench directory, "go run . -seed 1" does the same as the third
// line. The workloads, metrics and bounds are described in README.md and
// fixed in BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, printed by every
// untraced run of every workload. Sweep p99 is not among them: it has no
// ten samples beyond it on grid-cold, and its A/A spread exceeds the
// bound elsewhere (README.md); the traced run reports it.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher"},
	{"sweep_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"cpu_ms_per_cell", "ms", "lower"},
}

// perLayer are the metrics of single layers, printed by every traced run.
// A layer that a workload bypasses reports 0 there.
var perLayer = []metricDef{
	{"sim.ns_per_event", "ns", "lower"},
	{"mpi.lock_attempts_per_cell", "count", "lower"},
	{"mpi.lock_success_ratio", "ratio", "higher"},
	{"dls.global_chunks_per_cell", "count", "lower"},
	{"dls.sub_chunks_per_cell", "count", "lower"},
	{"core.cell_ms.mpi_mpi", "ms", "lower"},
	{"core.cell_ms.mpi_openmp", "ms", "lower"},
	{"core.serial_cells_per_s", "cells/s", "higher"},
	{"core.arena_reuse_ratio", "ratio", "higher"},
	{"workload.parse_us", "us", "lower"},
	{"hdls.hash_us", "us", "lower"},
	{"castore.lookups", "count", "higher"},
	{"castore.mem_hit_ratio", "ratio", "higher"},
	{"castore.disk_hit_ratio", "ratio", "higher"},
	{"castore.miss_ratio", "ratio", "lower"},
	{"castore.mem_lookup_us", "us", "lower"},
	{"castore.disk_lookup_us", "us", "lower"},
	{"castore.open_ms", "ms", "lower"},
	{"serve.allocs_per_cell", "count", "lower"},
	{"serve.heap_mb", "MiB", "lower"},
	{"serve.ttfb_ms_p50", "ms", "lower"},
	{"serve.queue_depth_max", "count", "lower"},
	{"serve.self_us_per_cell", "us", "lower"},
	{"serve.checkcell_us", "us", "lower"},
	{"serve.cellline_us", "us", "lower"},
	{"fleet.shard_ms_p50", "ms", "lower"},
	{"fleet.merge_stall_ms_p50", "ms", "lower"},
	{"fleet.shard_imbalance", "ratio", "lower"},
	{"fleet.coord_cpu_ms_per_cell", "ms", "lower"},
	{"fleet.retries", "count", "lower"},
	{"bench.sweep_p99_ms", "ms", "lower"},
	{"bench.paced_p50_ms", "ms", "lower"},
	{"bench.paced_p99_ms", "ms", "lower"},
	{"bench.late_ms_p99", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.host_ref_ms", "ms", "lower"},
}

// setupStarts is how many times each run sets its workload up; setup_s
// is their median, and the last start's daemons are the ones measured.
const setupStarts = 9

// lateLimit is the open-loop lateness above which paced latencies are not
// trustworthy: the generator, not the daemon, delayed the requests.
const lateLimit = time.Millisecond

// benchCoresLimit is the benchmark's own CPU use, in cores, above which it
// warns: it drives the daemons from one Go P, so near one core the
// generator, not the daemons, may set the measured rate.
const benchCoresLimit = 0.8

// result is one workload run, as appended to the -json file.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	HostRefMS float64 `json:"host_ref_ms"`
	// BenchCores is the CPU this process used while driving the daemons,
	// in cores: near 1 the generator, not the daemons, may set the rate.
	BenchCores float64            `json:"bench_cores"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	selfTimes  []selfTime
}

// env is what every workload of one invocation shares.
type env struct {
	launch  launcher
	scratch string // per-invocation directory for disk tiers
	seed    int64
	dur     time.Duration // measured time per workload
	tr      *tracer       // nil unless tracing
	http    *http.Client
	log     io.Writer
	// clientProcs, when positive, is this process's GOMAXPROCS while it
	// drives daemons. One P suffices for the client, and a second one
	// spinning for work takes CPU from the daemons being measured: on a
	// 2-core host it doubled the run-to-run spread of small-cells.
	clientProcs int
	// hostRef times the host reference kernel (see hostref.go).
	hostRef func() time.Duration
	// maxSegments, when positive, caps the workloads' segment counts; the
	// smoke test measures in one.
	maxSegments int
}

// run is one workload's run.
type run struct {
	*env
	name         string
	segments     int    // untraced measurement segments
	dir          string // this workload's scratch directory
	oracle       *oracle
	ids          atomic.Int64 // sweep numbers
	setupT       tally        // cells sent while preparing and setting up
	setupSweeper *sweeper
	errOnce      sync.Once
}

func (r *run) sweeper(t *tally, tr *tracer) *sweeper {
	return &sweeper{http: r.http, oracle: r.oracle, tr: tr, t: t, ids: &r.ids, onErr: r.noteErr}
}

// noteErr reports the run's first failed sweep on the log.
func (r *run) noteErr(err error) {
	r.errOnce.Do(func() { fmt.Fprintf(r.log, "bench: %s: %v\n", r.name, err) })
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Int("seconds", 0, "measured seconds per workload (0 = run_seconds of BENCHMARK.json)")
		traceOn  = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		traceOut = fs.String("trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/trace.json)")
		jsonOut  = fs.String("json", "", "append each workload's result to this file as one JSON line")
		rootDir  = fs.String("root", "", "repository root (default: nearest directory up holding cmd/hdlsd)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traceOn))
	}
	var selected []workloadInfo
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	root, err := findRoot(*rootDir)
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		spec, err := loadSpec(root)
		if err != nil {
			return fail(err)
		}
		*seconds = spec.RunSeconds
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive, got %d", *seconds))
	}
	build := filepath.Join(root, ".bench_build")
	bin, err := buildHdlsd(root, build, stderr)
	if err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	e := &env{
		launch:  execLauncher(bin),
		scratch: scratch,
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		http:    newHTTPClient(),
		log:     stderr,

		clientProcs: 1,
		hostRef:     hostRef,
	}
	if *traceOn == 1 {
		e.tr = &tracer{}
		if *traceOut == "" {
			*traceOut = filepath.Join(build, "trace.json")
		}
	}
	results, err := e.runAll(selected, stdout, *jsonOut)
	if err != nil {
		return fail(err)
	}
	if e.tr != nil {
		if err := e.tr.writeChrome(*traceOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "bench: trace written to %s\n", *traceOut)
	}
	ok, err := printFinal(stdout, results)
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}

// runAll runs the workloads in order, printing each one's metric lines
// and appending its result to jsonOut when set.
func (e *env) runAll(selected []workloadInfo, stdout io.Writer, jsonOut string) ([]*result, error) {
	var results []*result
	for _, w := range selected {
		res, err := e.runWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(stdout, res)
		if jsonOut != "" {
			if err := appendJSON(jsonOut, res); err != nil {
				return nil, err
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// findRoot returns dir, or the nearest directory up from the working
// directory that holds cmd/hdlsd.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return filepath.Abs(dir)
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if st, err := os.Stat(filepath.Join(d, "cmd", "hdlsd")); err == nil && st.IsDir() {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no cmd/hdlsd above %s; pass -root", wd)
		}
	}
}

// buildHdlsd compiles the daemon under test from the repository's source.
func buildHdlsd(root, build string, stderr io.Writer) (string, error) {
	bin := filepath.Join(build, "hdlsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hdlsd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build hdlsd: %w", err)
	}
	return bin, nil
}

// runWorkload sets the workload up setupStarts times, measures the last
// start's daemons, stops them, and checks the sampled outputs in-process.
func (e *env) runWorkload(info workloadInfo) (*result, error) {
	w := info.make()
	r := &run{env: e, name: info.name, segments: info.segments, dir: filepath.Join(e.scratch, info.name), oracle: newOracle(info.name)}
	if e.maxSegments > 0 {
		r.segments = min(r.segments, e.maxSegments)
	}
	r.setupSweeper = r.sweeper(&r.setupT, nil)
	e.tr.setWorkload(info.name)
	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	setups, setupStretch, m, err := e.drive(r, w)
	if err != nil {
		return nil, err
	}
	samples := len(r.oracle.samples)
	bad := r.oracle.verify(runtime.GOMAXPROCS(0))
	res := &result{
		Workload:   info.name,
		Seed:       e.seed,
		Seconds:    e.dur.Seconds(),
		Trace:      e.tr != nil,
		Attempted:  r.setupT.attempted + m.attempted,
		Failed:     r.setupT.failed + m.failed + bad,
		HostRefMS:  ms(m.hostRef),
		BenchCores: m.benchCores,
		Metrics:    m.metrics,
		Samples: map[string]int{
			"sweeps":          m.sweeps,
			"cells":           m.cells,
			"latency_samples": m.latSamples,
			"setup_starts":    len(setups),
			"oracle_verified": samples,
		},
	}
	res.Correct = res.Failed == 0
	if f := r.oracle.firstFailure(); f != "" {
		fmt.Fprintln(e.log, "bench:", f)
	}
	if e.tr == nil {
		res.Metrics["setup_s"] = median(setups) / (m.slow * setupStretch)
		return res, nil
	}
	probes, err := e.probe(r, w, m)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		res.Metrics[k] = v
	}
	res.selfTimes = e.tr.selfTimes(info.name)
	return res, nil
}

// drive sets the workload up setupStarts times, returning each start's
// wall time and the steal factor over all of them, then measures the last
// start's daemons and stops them.
func (e *env) drive(r *run, w mix) ([]float64, float64, *measurement, error) {
	if e.clientProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.clientProcs))
	}
	var setups []float64
	var dep *deployment
	ticks0, err := hostTicks()
	if err != nil {
		return nil, 0, nil, err
	}
	for i := 0; i < setupStarts; i++ {
		if dep != nil {
			if err := dep.stop(); err != nil {
				return nil, 0, nil, err
			}
		}
		start := time.Now()
		d, err := w.setup(r, i)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		dep = d
	}
	ticks1, err := hostTicks()
	if err != nil {
		dep.stop()
		return nil, 0, nil, err
	}
	m, err := e.measure(r, w, dep)
	if stopErr := dep.stop(); err == nil {
		err = stopErr
	}
	return setups, stealFactor(ticks0, ticks1), m, err
}

// measurement is what the measured passes of one run produced.
type measurement struct {
	metrics                          map[string]float64
	sweeps, cells, attempted, failed int
	latSamples                       int
	engineRuns, servedCells          float64 // daemon counter deltas
	workerCPU                        time.Duration
	// hostRef is the reference kernel's mean CPU time across the passes,
	// and slow its ratio to refNominal: above 1 the host ran slower than
	// nominal.
	hostRef    time.Duration
	slow       float64
	benchCores float64
}

// measure drives the deployment: r.segments untraced passes that share
// the duration, or, when tracing, an untraced and a traced pass of a third
// of it each. The reference kernel is timed before the first pass and after
// each one, while the daemons are idle.
func (e *env) measure(r *run, w mix, dep *deployment) (*measurement, error) {
	before, err := dep.snapshot()
	if err != nil {
		return nil, err
	}
	t, u := &tally{}, &tally{}
	refs := []time.Duration{e.hostRef()}
	var benchCPU, driven time.Duration
	pass := func(dur time.Duration, s *sweeper, p int) float64 {
		c0, t0 := selfCPU(), time.Now()
		rate := w.pass(r, dep, dur, s, p)
		benchCPU += selfCPU() - c0
		driven += time.Since(t0)
		return rate
	}
	var (
		rate, untracedRate, queueMax float64
		normRate, normCPU            float64
		normLat                      []float64
	)
	if e.tr == nil {
		// Each segment is normalized by the mean of the reference times
		// around it and by the time stolen during it, so the normalization
		// follows the host's drift. CPU time is not stretched by steal.
		n := r.segments
		for p := 0; p < n; p++ {
			cpu0, err := dep.cpu()
			if err != nil {
				return nil, err
			}
			ticks0, err := hostTicks()
			if err != nil {
				return nil, err
			}
			first := len(t.lat)
			segRate := pass(e.dur/time.Duration(n), r.sweeper(t, nil), p)
			ticks1, err := hostTicks()
			if err != nil {
				return nil, err
			}
			cpu1, err := dep.cpu()
			if err != nil {
				return nil, err
			}
			refs = append(refs, e.hostRef())
			slow := float64(refs[p]+refs[p+1]) / 2 / float64(refNominal)
			stretch := slow * stealFactor(ticks0, ticks1)
			normRate += segRate * stretch / float64(n)
			normCPU += ms(cpu1-cpu0) / slow
			for _, l := range t.lat[first:] {
				normLat = append(normLat, ms(l)/stretch)
			}
		}
	} else {
		untracedRate = pass(e.dur/3, r.sweeper(u, nil), 0)
		refs = append(refs, e.hostRef())
		stop := sampleQueue(dep, &queueMax)
		rate = pass(e.dur/3, r.sweeper(t, e.tr), 1)
		stop()
		refs = append(refs, e.hostRef())
	}
	after, err := dep.snapshot()
	if err != nil {
		return nil, err
	}
	rss, err := dep.peakRSS()
	if err != nil {
		return nil, err
	}
	var ref time.Duration
	for _, d := range refs {
		ref += d / time.Duration(len(refs))
	}
	m := &measurement{
		metrics:    map[string]float64{},
		latSamples: len(t.lat),
		hostRef:    ref,
		slow:       float64(ref) / float64(refNominal),
		benchCores: ratio(float64(benchCPU), float64(driven)),
	}
	for _, x := range []*tally{t, u} {
		m.sweeps += x.sweeps
		m.cells += x.cells
		m.attempted += x.attempted
		m.failed += x.failed
	}
	if late := percentile(millis(t.late), 0.99); late > ms(lateLimit) {
		fmt.Fprintf(e.log, "bench: %s: open-loop generator p99 lateness %.3f ms exceeds %v; paced latencies are not trustworthy\n",
			r.name, late, lateLimit)
	}
	if m.benchCores > benchCoresLimit {
		fmt.Fprintf(e.log, "bench: %s: the benchmark used %.2f cores while driving; the generator may limit the measured rate\n",
			r.name, m.benchCores)
	}
	cpu := after.cpuSince(before)
	var coordCPU time.Duration
	if len(dep.workers) > 0 { // the coordinator is the last daemon
		last := len(dep.daemons) - 1
		coordCPU = after.cpu[last] - before.cpu[last]
	}
	m.workerCPU = cpu - coordCPU
	m.engineRuns = after.delta(before, "hdlsd_cache_misses_total")
	m.servedCells = after.delta(before, "hdlsd_cells_total")
	if e.tr == nil {
		// Rates grow and times shrink by the host's slowness, so each reads
		// as on a host where the reference takes refNominal and nothing is
		// stolen.
		m.metrics["cells_per_s"] = normRate
		m.metrics["sweep_p50_ms"] = percentile(normLat, 0.50)
		m.metrics["rss_peak_mb"] = float64(rss) / (1 << 20)
		m.metrics["cpu_ms_per_cell"] = ratio(normCPU, float64(m.cells))
		return m, nil
	}
	lc := t.layers
	mem := after.delta(before, "hdlsd_cache_mem_hits_total")
	disk := after.delta(before, "hdlsd_cache_disk_hits_total")
	peer := after.delta(before, "hdlsd_cache_peer_hits_total")
	lookups := mem + disk + peer + m.engineRuns
	reuses := after.delta(before, "hdlsd_arena_reuses_total")
	builds := after.delta(before, "hdlsd_arena_builds_total")
	for k, v := range map[string]float64{
		"mpi.lock_attempts_per_cell":  ratio(float64(lc.lockAttempts), float64(lc.mpiCells)),
		"mpi.lock_success_ratio":      ratio(float64(lc.lockAcquired), float64(lc.lockAttempts)),
		"dls.global_chunks_per_cell":  ratio(float64(lc.globalChunks), float64(lc.cells)),
		"dls.sub_chunks_per_cell":     ratio(float64(lc.subChunks), float64(lc.cells)),
		"core.arena_reuse_ratio":      ratio(reuses, reuses+builds),
		"castore.lookups":             lookups,
		"castore.mem_hit_ratio":       ratio(mem, lookups),
		"castore.disk_hit_ratio":      ratio(disk, lookups),
		"castore.miss_ratio":          ratio(m.engineRuns, lookups),
		"serve.allocs_per_cell":       ratio(after.delta(before, "hdlsd_go_mallocs_total"), m.servedCells),
		"serve.heap_mb":               after.sum("hdlsd_go_heap_alloc_bytes") / (1 << 20),
		"serve.ttfb_ms_p50":           percentile(millis(t.ttfb), 0.50),
		"serve.queue_depth_max":       queueMax,
		"fleet.shard_ms_p50":          percentile(millis(t.shard), 0.50),
		"fleet.merge_stall_ms_p50":    percentile(millis(t.stall), 0.50),
		"fleet.shard_imbalance":       median(t.imbalance),
		"fleet.coord_cpu_ms_per_cell": ratio(ms(coordCPU), after.delta(before, "hdlsd_fleet_cells_total")),
		"fleet.retries":               after.delta(before, "hdlsd_fleet_retries_total") + after.delta(before, "hdlsd_fleet_reroutes_total"),
		"bench.sweep_p99_ms":          percentile(millis(u.lat), 0.99),
		"bench.paced_p50_ms":          percentile(millis(t.paced), 0.50),
		"bench.paced_p99_ms":          percentile(millis(t.paced), 0.99),
		"bench.late_ms_p99":           percentile(millis(t.late), 0.99),
		"bench.trace_overhead":        ratio(untracedRate-rate, untracedRate),
		"bench.host_ref_ms":           ms(ref),
	} {
		m.metrics[k] = v
	}
	return m, nil
}

// probe runs the in-process layer probes on the workload's own inputs
// after its daemons have stopped.
func (e *env) probe(r *run, w mix, m *measurement) (map[string]float64, error) {
	out := map[string]float64{"sim.ns_per_event": probeSim(e.tr)}
	cells := w.probeCells(r)
	cp, err := probeCore(e.tr, cells)
	if err != nil {
		return nil, err
	}
	out["core.cell_ms.mpi_mpi"] = median(cp.mpiMS)
	out["core.cell_ms.mpi_openmp"] = median(cp.openmpMS)
	out["core.serial_cells_per_s"] = float64(len(cells)) / cp.total.Seconds()
	engineUS := float64(cp.total) / float64(time.Microsecond) / float64(len(cells))
	// The daemons' CPU per served cell, less the engine's share of it.
	out["serve.self_us_per_cell"] = ratio(float64(m.workerCPU)/float64(time.Microsecond)-engineUS*m.engineRuns, m.servedCells)
	for k, v := range probeMicro(e.tr, cells, cp.sums, e.seed) {
		out[k] = v
	}
	dir, entries := w.castoreDir(), map[string][]byte(nil)
	n := replayMem
	if dir == "" {
		// A fresh tier filled from the probe's own results; 512 stays
		// under the store's 1024-write queue.
		dir, entries, n = filepath.Join(r.dir, "castore-probe"), cp.sums, 512
	}
	var hashes []string
	for _, c := range cells[:min(n, len(cells))] {
		hashes = append(hashes, c.hash)
	}
	openMS, diskUS, memUS, err := probeCastore(e.tr, dir, hashes, entries)
	if err != nil {
		return nil, err
	}
	out["castore.open_ms"], out["castore.disk_lookup_us"], out["castore.mem_lookup_us"] = openMS, diskUS, memUS
	return out, nil
}

// sampleQueue scrapes the daemons' queue depth every 250 ms into *peak
// until the returned stop is called; stop waits for the sampler to end.
func sampleQueue(dep *deployment, peak *float64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			var depth float64
			for _, d := range dep.daemons {
				if st, err := scrape(d); err == nil {
					depth += st["hdlsd_queue_depth"]
				}
			}
			*peak = max(*peak, depth)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// formatValue prints a value with every digit it was measured with.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// printResult prints one run's metric lines, its sample counts and, when
// traced, its per-layer self-time table.
func printResult(w io.Writer, res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, d.name, formatValue(res.Metrics[d.name]), d.unit)
	}
	fmt.Fprintf(w, "%s samples sweeps=%d cells=%d latency=%d setup_starts=%d oracle_verified=%d attempted=%d failed=%d host_ref_ms=%.3f bench_cores=%.3f\n",
		res.Workload, res.Samples["sweeps"], res.Samples["cells"], res.Samples["latency_samples"],
		res.Samples["setup_starts"], res.Samples["oracle_verified"], res.Attempted, res.Failed, res.HostRefMS, res.BenchCores)
	for _, st := range res.selfTimes {
		fmt.Fprintf(w, "%s self-time %-28s count=%-7d total_ms=%-12.3f self_ms=%.3f\n",
			res.Workload, st.name, st.count, ms(st.total), ms(st.self))
	}
}

// printFinal prints the last line: one JSON object with the result of the
// run. With several workloads, metric names are prefixed "workload/".
func printFinal(w io.Writer, results []*result) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		defs := endToEnd
		if res.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			key := d.name
			if len(results) > 1 {
				key = res.Workload + "/" + d.name
			}
			out.Metrics[key] = value{res.Metrics[d.name], d.unit}
		}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return out.Correct, err
}

// appendJSON appends one result line to path, the input of compare.
func appendJSON(path string, res *result) error {
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(js, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds <= 0 {
		return nil, errors.New("BENCHMARK.json: run_seconds must be positive")
	}
	return &s, nil
}
