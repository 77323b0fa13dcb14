// Command hdlsd serves hierarchical DLS simulation sweeps over HTTP: the
// sweep-as-a-service daemon over the same hdls API the CLIs use. Cells run
// on a bounded worker pool drawing pooled simulation arenas, results are
// resolved through a tiered content-addressed store keyed by canonical
// config hash (deterministic sims make them perfectly cacheable), and
// sweeps stream per-cell NDJSON as cells complete.
//
// The store's tiers: an in-memory LRU, an optional checksummed disk tier
// (-cache-dir, capped by -cache-disk-max) that makes restarts warm, and an
// optional fleet peer-fill hook (-cache-peers) that pulls a missing cell
// from the ring peer that already computed it (GET /v1/cache/{hash})
// before simulating. Concurrent identical requests collapse onto a single
// engine execution; every tier replays byte-identical results. The
// graceful drain flushes pending disk-tier writes before exit.
//
//	hdlsd -addr :8080
//
//	curl -s localhost:8080/v1/techniques
//	curl -s -d '{"app":"Mandelbrot","nodes":4,"inter":"GSS","intra":"STATIC",
//	             "approach":"MPI+MPI"}' localhost:8080/v1/run
//	curl -sN -d '{"cells":[{"inter":"GSS","intra":"SS","approach":"MPI+MPI"},
//	              {"inter":"FAC2","intra":"SS","approach":"MPI+MPI"}]}' \
//	     'localhost:8080/v1/sweep?stream=1'
//
// With -role coordinator the daemon runs no simulations itself: it shards
// each sweep across the -peers worker daemons by consistent-hash routing
// on the canonical config hash, retries failures with backoff against ring
// successors, and merges the worker streams back into a response that is
// byte-identical to a single daemon's (DESIGN.md §10):
//
//	hdlsd -addr :9100 &
//	hdlsd -addr :9101 &
//	hdlsd -role coordinator -addr :8080 \
//	      -peers http://127.0.0.1:9100,http://127.0.0.1:9101
//
// Probes are split: /healthz is liveness (200 while the process serves,
// draining included); /readyz is readiness and flips to 503 + Retry-After
// on drain, queue saturation, or — for a coordinator — when every worker's
// circuit breaker is open. SIGTERM/SIGINT starts a graceful drain: new
// jobs are rejected, in-flight jobs finish (bounded by -drain-timeout),
// then the process exits. /metrics exposes throughput, cache, arena-pool
// and fleet counters in Prometheus text format.
//
// -chaos arms deterministic fault injection (delay, error, drop, truncate
// — see internal/serve) on a worker's cell endpoints; the fleet smoke and
// chaos tests use it, production never should.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	var (
		role     = flag.String("role", "serve", "daemon role: serve (run cells) or coordinator (shard sweeps across -peers)")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		cacheN   = flag.Int("cache", 4096, "result-store memory-tier entries (LRU)")
		cacheDir = flag.String("cache-dir", "", "result-store disk tier directory (empty disables; restarts are warm)")
		cacheMax = flag.Int64("cache-disk-max", 256<<20, "disk-tier cap on live entry bytes, LRU-evicted; the log stays under twice that plus 4 MiB")
		cachePrs = flag.String("cache-peers", "", "comma-separated peer base URLs to fill misses from (GET /v1/cache/{hash})")
		cacheHop = flag.Int("cache-peer-probes", 2, "ring successors probed per miss before simulating")
		cachePT  = flag.Duration("cache-peer-timeout", 500*time.Millisecond, "per-probe peer-fill deadline")
		maxCells = flag.Int("max-cells", 4096, "maximum cells per sweep submission")
		queueCap = flag.Int("queue", 1<<16, "queued-cell capacity across all jobs")
		maxNodes = flag.Int("max-nodes", 4096, "per-cell simulated node limit")
		maxWPN   = flag.Int("max-workers-per-node", 4096, "per-cell workers-per-node limit")
		maxWN    = flag.Int("max-workload-n", 1<<22, "per-cell workload iteration limit")
		jobTTL   = flag.Duration("job-ttl", 15*time.Minute, "completed-job retention time")
		jobKeep  = flag.Int("job-keep", 256, "completed-job retention count")
		jrnlDir  = flag.String("journal-dir", "", "job-journal directory: async sweeps survive crashes and are replayed at startup (empty disables)")
		maxJobs  = flag.Int("max-active-jobs", 1024, "admission bound on incomplete jobs; excess submissions get 429 + Retry-After")
		maxCJobs = flag.Int("max-client-jobs", 64, "admission bound on one client's incomplete jobs (X-Client header or remote host)")
		chaos    = flag.String("chaos", "", "arm deterministic fault injection (spec, or 'header' for X-Chaos only)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM")

		peers      = flag.String("peers", "", "coordinator: comma-separated worker base URLs")
		attempts   = flag.Int("max-attempts", 4, "coordinator: total tries per cell")
		backoff    = flag.Duration("backoff", 25*time.Millisecond, "coordinator: base retry backoff")
		backoffMax = flag.Duration("backoff-max", time.Second, "coordinator: retry backoff cap")
		cellT      = flag.Duration("cell-timeout", 60*time.Second, "coordinator: per-cell result deadline")
		brkFails   = flag.Int("breaker-failures", 3, "coordinator: consecutive failures that trip a worker's breaker")
		brkCool    = flag.Duration("breaker-cooldown", 2*time.Second, "coordinator: breaker cooldown before a half-open trial")
		probeEvery = flag.Duration("probe-interval", time.Second, "coordinator: worker health-probe period (0 disables)")
		dlMargin   = flag.Duration("deadline-margin", 250*time.Millisecond, "coordinator: network margin subtracted from forwarded X-Deadline")
	)
	flag.Parse()

	limits := serve.Options{
		Workers:           *workers,
		CacheEntries:      *cacheN,
		CacheDir:          *cacheDir,
		CacheDiskMax:      *cacheMax,
		MaxCells:          *maxCells,
		QueueCapacity:     *queueCap,
		MaxNodes:          *maxNodes,
		MaxWorkersPerNode: *maxWPN,
		MaxWorkloadN:      *maxWN,
		JobTTL:            *jobTTL,
		RetainedJobs:      *jobKeep,
		JournalDir:        *jrnlDir,
		MaxActiveJobs:     *maxJobs,
		MaxJobsPerClient:  *maxCJobs,
		Chaos:             *chaos,
	}

	var handler http.Handler
	var drain func(context.Context) error
	switch *role {
	case "serve":
		if *cachePrs != "" {
			limits.PeerFetch = fleet.PeerFill(fleet.PeerFillOptions{
				Peers:   strings.Split(*cachePrs, ","),
				Probes:  *cacheHop,
				Timeout: *cachePT,
			})
		}
		srv, err := serve.NewWithError(limits)
		if err != nil {
			log.Fatalf("hdlsd: %v", err)
		}
		handler, drain = srv.Handler(), srv.Drain
	case "coordinator":
		if *peers == "" {
			log.Fatal("hdlsd: -role coordinator requires -peers")
		}
		coord, err := fleet.New(fleet.Options{
			Workers:         strings.Split(*peers, ","),
			MaxAttempts:     *attempts,
			BackoffBase:     *backoff,
			BackoffMax:      *backoffMax,
			CellTimeout:     *cellT,
			BreakerFailures: *brkFails,
			BreakerCooldown: *brkCool,
			ProbeInterval:   *probeEvery,
			DeadlineMargin:  *dlMargin,
			Limits:          limits,
		})
		if err != nil {
			log.Fatalf("hdlsd: %v", err)
		}
		defer coord.Close()
		handler = coord.Handler()
		drain = func(context.Context) error { coord.Close(); return nil }
	default:
		log.Fatalf("hdlsd: unknown -role %q (serve, coordinator)", *role)
	}

	// Harden the listener against stuck or malicious peers: a client that
	// never finishes its headers or parks an idle keep-alive connection
	// must not hold daemon resources forever. No WriteTimeout: sweep
	// streams are legitimately long-lived and cancel via request context.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("hdlsd listening on %s (role %s)", *addr, *role)

	select {
	case err := <-errCh:
		log.Fatalf("hdlsd: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("hdlsd: draining (timeout %s)", *drainT)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	// Drain first so /readyz flips to 503 and new submissions are refused
	// while existing streams keep flowing; Shutdown then waits for those
	// streaming responses to finish.
	if err := drain(drainCtx); err != nil {
		log.Printf("hdlsd: drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("hdlsd: shutdown: %v", err)
	}
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown
	log.Printf("hdlsd: drained, exiting")
	os.Exit(0)
}
