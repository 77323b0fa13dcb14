package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/hdls"
	"repro/internal/serve"
)

// Options configures a Coordinator.
type Options struct {
	// Workers lists the worker daemon base URLs (e.g. http://127.0.0.1:9101).
	// At least one is required; trailing slashes are trimmed.
	Workers []string
	// Replicas is the virtual points per worker on the consistent-hash ring
	// (default 64).
	Replicas int
	// MaxAttempts bounds the total tries per cell, initial dispatch included
	// (default 4). A cell that fails MaxAttempts times resolves to an
	// in-band NDJSON error line, never a broken stream.
	MaxAttempts int
	// BackoffBase is the pre-retry delay after the first failure; attempt k
	// waits BackoffBase·2^(k-1), jittered to [d/2, d), capped at BackoffMax
	// (defaults 25ms, 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter stream, so test schedules are
	// reproducible (default 1).
	JitterSeed int64
	// CellTimeout bounds the wait for each next result line of a worker
	// stream — a per-cell deadline, since workers stream cells in order
	// (default 60s). It also bounds /v1/run forwards and is the implicit
	// deadline for discovery proxying.
	CellTimeout time.Duration
	// BreakerFailures consecutive failures trip a worker's circuit breaker
	// open; BreakerCooldown later it admits one half-open trial
	// (defaults 3, 2s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// ProbeInterval enables active health probing of worker /readyz at this
	// period (0 disables; probes feed the breakers, so a recovered worker is
	// reclosed without sacrificing a live cell as the trial).
	ProbeInterval time.Duration
	// DeadlineMargin is subtracted from a client's end-to-end deadline when
	// it is forwarded to workers (default 250ms): the worker must stop this
	// much earlier so its final lines still cross the network and merge
	// before the client's own deadline fires. Workers past the tightened
	// deadline resolve cells as frozen in-band "deadline exceeded" lines.
	DeadlineMargin time.Duration
	// MaxSweeps bounds concurrently coordinated sweeps; excess submissions
	// are shed with 503 + Retry-After (default 16).
	MaxSweeps int
	// Limits are the request limits, matching the workers' serve.Options
	// (MaxCells and the per-cell bounds) so the coordinator 400s exactly
	// what a worker would. Zero fields take the serve defaults.
	Limits serve.Options
	// Client overrides the HTTP client used for worker traffic (tests).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 64
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 60 * time.Second
	}
	if o.BreakerFailures <= 0 {
		o.BreakerFailures = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.DeadlineMargin <= 0 {
		o.DeadlineMargin = 250 * time.Millisecond
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 16
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// worker is one fleet member: its base URL and the circuit breaker that
// summarizes what the coordinator currently believes about it.
type worker struct {
	name    string
	breaker *Breaker
}

// Coordinator shards sweeps across a fleet of hdlsd workers and merges the
// result streams back into a byte-identical single-daemon response. See
// the package comment and DESIGN.md §10 for the failure model.
type Coordinator struct {
	opts    Options
	workers []*worker
	ring    *Ring
	mux     *http.ServeMux
	started time.Time

	sweepSem chan struct{}

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// sleep is the backoff wait, injectable so retry tests run in
	// microseconds while still observing every requested delay.
	sleep func(ctx context.Context, d time.Duration) error
	// now is the clock behind Retry-After derivation, injectable for tests.
	now func() time.Time

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	sweeps       atomic.Int64 // sweep submissions coordinated
	runs         atomic.Int64 // /v1/run forwards
	cells        atomic.Int64 // cell results merged (errors included)
	retries      atomic.Int64 // re-dispatched cell attempts
	reroutes     atomic.Int64 // retries that moved to a different worker
	cellFailures atomic.Int64 // cells resolved as error lines by the fleet
	shed         atomic.Int64 // submissions refused with 503
	streamBreaks atomic.Int64 // worker shard streams that failed mid-flight
	hintsHonored atomic.Int64 // retries whose backoff was floored by a worker Retry-After
	probes       atomic.Int64 // health probes sent
	probeFails   atomic.Int64 // health probes that failed
}

// New builds a Coordinator over the given workers and starts the health
// prober when Options.ProbeInterval is set. Call Close on shutdown.
func New(opt Options) (*Coordinator, error) {
	o := opt.withDefaults()
	if len(o.Workers) == 0 {
		return nil, errors.New("fleet: at least one worker URL is required")
	}
	c := &Coordinator{
		opts:      o,
		started:   time.Now(),
		sweepSem:  make(chan struct{}, o.MaxSweeps),
		jitter:    rand.New(rand.NewSource(o.JitterSeed)),
		sleep:     sleepCtx,
		now:       time.Now,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	names := make([]string, 0, len(o.Workers))
	for _, u := range o.Workers {
		name := strings.TrimRight(strings.TrimSpace(u), "/")
		if name == "" {
			return nil, errors.New("fleet: empty worker URL")
		}
		names = append(names, name)
		c.workers = append(c.workers, &worker{
			name:    name,
			breaker: NewBreaker(o.BreakerFailures, o.BreakerCooldown),
		})
	}
	c.ring = NewRing(names, o.Replicas)
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/run", c.handleRun)
	c.mux.HandleFunc("POST /v1/sweep", c.handleSweep)
	c.mux.HandleFunc("GET /v1/techniques", c.proxyDiscovery)
	c.mux.HandleFunc("GET /v1/workloads", c.proxyDiscovery)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	if o.ProbeInterval > 0 {
		go c.probeLoop(o.ProbeInterval)
	} else {
		close(c.probeDone)
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the health prober. In-flight sweeps are not interrupted.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.probeStop) })
	<-c.probeDone
}

// sleepCtx waits d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff computes the jittered pre-retry delay after `attempt` failed
// attempts: base·2^(attempt-1) capped at max, then jittered to [d/2, d) so
// simultaneous retries against a recovering worker spread out. The jitter
// stream is seeded (Options.JitterSeed): the schedule is reproducible.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase
	for i := 1; i < attempt && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	c.jitterMu.Lock()
	f := c.jitter.Float64()
	c.jitterMu.Unlock()
	half := d / 2
	return half + time.Duration(f*float64(half))
}

// retryDelay is the wait before retrying cells after `failed` failed
// attempts: the jittered backoff, raised to the worker's Retry-After hint.
// The worker told us when it expects to have capacity, and coming back
// earlier just buys another shed; the hint is capped, so a bad one cannot
// park the sweep (maxRetryAfterFloor). Retries the hint stretched count
// in hintsHonored, one per cell.
func (c *Coordinator) retryDelay(failed int, hint time.Duration, cells int) time.Duration {
	delay := c.backoff(failed)
	if hint > maxRetryAfterFloor {
		hint = maxRetryAfterFloor
	}
	if hint > delay {
		c.hintsHonored.Add(int64(cells))
		return hint
	}
	return delay
}

// pickWorker returns the first worker in succ order (rotated by offset)
// whose breaker admits traffic, or -1 when every breaker refuses. The
// rotation makes attempt k of a cell start from its k-th ring successor,
// so retries walk away from the failing worker instead of hammering it.
func (c *Coordinator) pickWorker(succ []int, offset int) int {
	n := len(succ)
	for i := 0; i < n; i++ {
		wi := succ[(offset+i)%n]
		if c.workers[wi].breaker.Allow() {
			return wi
		}
	}
	return -1
}

// anyAvailable reports whether some worker's breaker would admit traffic,
// without consuming a half-open trial slot.
func (c *Coordinator) anyAvailable() bool {
	for _, wk := range c.workers {
		if wk.breaker.Available() {
			return true
		}
	}
	return false
}

// retryAfter derives the Retry-After hint for a breaker-driven refusal:
// the earliest moment any worker's breaker re-admits traffic (its half-open
// deadline), rounded up to whole seconds and floored at 1 so the hint never
// tells clients to hammer immediately. When some breaker already admits
// traffic the refusal wasn't breaker-bound, and the workers' own
// back-pressure default applies.
func (c *Coordinator) retryAfter() string {
	var earliest time.Time
	for _, wk := range c.workers {
		at := wk.breaker.ReadyAt()
		if at.IsZero() {
			return serve.DefaultRetryAfter
		}
		if earliest.IsZero() || at.Before(earliest) {
			earliest = at
		}
	}
	secs := int64(math.Ceil(earliest.Sub(c.now()).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// maxStreamLine bounds one worker NDJSON line (same cap the scanner-based
// reader enforced); longer lines are a protocol violation.
const maxStreamLine = 4 << 20

// maxRetryAfterFloor caps how long a worker's Retry-After hint can stretch
// a retry's backoff: the hint is honored as a floor (hammering a worker
// that told us when to come back wastes both ends), but a confused or
// hostile worker must not be able to park a sweep for minutes.
const maxRetryAfterFloor = 30 * time.Second

// parseRetryAfter extracts a delta-seconds Retry-After hint (the only form
// hdlsd emits); absent or malformed headers yield zero.
func parseRetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// shardMeta carries a sweep's cross-cutting request attributes through
// dispatch and retries. Unlike chaos (first attempt only), these ride on
// every attempt: the deadline is the client's end-to-end bound and the
// client key is what the workers' per-client admission budget charges.
type shardMeta struct {
	client   string
	deadline time.Time // already tightened by DeadlineMargin; zero = none
}

// apply stamps the metadata onto an outgoing worker request.
func (sm shardMeta) apply(req *http.Request) {
	if sm.client != "" {
		req.Header.Set("X-Client", sm.client)
	}
	if !sm.deadline.IsZero() {
		req.Header.Set("X-Deadline", sm.deadline.UTC().Format(time.RFC3339Nano))
	}
}

// cellWork is one cell's routing state while its sweep is in flight.
type cellWork struct {
	index int         // global index in the sweep
	cfg   hdls.Config // the cell, re-marshaled for worker dispatch
	hash  string      // canonical config hash (authoritative: computed here)
	succ  []int       // ring successor order for this cell's routing key
}

// merge reassembles per-cell lines into strict sweep order: deliver is
// first-wins per cell (a timed-out shard and its retry may both resolve a
// cell — with identical bytes, since summaries are pure functions of the
// config), line reports a resolved cell without blocking, and wait blocks
// until cell i resolves or ctx cancels.
type merge struct {
	mu    sync.Mutex
	lines [][]byte
	done  []chan struct{}
}

func newMerge(n int) *merge {
	m := &merge{lines: make([][]byte, n), done: make([]chan struct{}, n)}
	for i := range m.done {
		m.done[i] = make(chan struct{})
	}
	return m
}

func (m *merge) deliver(i int, line []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lines[i] != nil {
		return false
	}
	m.lines[i] = line
	close(m.done[i])
	return true
}

func (m *merge) line(i int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lines[i]
}

// wait is StreamLines' blocking half: the stream loop calls it only after
// line(i) found the cell unresolved, so the select is armed only when the
// merge actually waits.
func (m *merge) wait(ctx context.Context, i int) ([]byte, error) {
	select {
	case <-m.done[i]:
		return m.line(i), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleSweep validates the sweep exactly like a worker would, shards the
// cells across the fleet by consistent hash, and streams the merged NDJSON
// in strict index order. The response is always a stream (the coordinator
// keeps no job store), and its body is byte-identical to a single daemon
// running the same sweep, whatever routing, retries, or worker losses
// happened along the way.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	cells, deadline, ok := c.opts.Limits.ReadRequest(w, r, true)
	if !ok {
		return
	}
	// Graceful degradation: refuse up front — with a Retry-After hint —
	// rather than queueing unboundedly against a dead fleet or coordinating
	// more sweeps than configured.
	if !c.anyAvailable() {
		c.shed.Add(1)
		w.Header().Set("Retry-After", c.retryAfter())
		serve.HTTPError(w, http.StatusServiceUnavailable, "no fleet worker is available")
		return
	}
	select {
	case c.sweepSem <- struct{}{}:
	default:
		c.shed.Add(1)
		w.Header().Set("Retry-After", serve.DefaultRetryAfter)
		serve.HTTPError(w, http.StatusServiceUnavailable, "coordinator at its %d-sweep limit", c.opts.MaxSweeps)
		return
	}
	defer func() { <-c.sweepSem }()
	c.sweeps.Add(1)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// One hash per cell: the routing key is the hash's leading bytes, so
	// HashKeyOf recovers it instead of HashKey hashing the cell again.
	work := make([]*cellWork, len(cells))
	for i, cfg := range cells {
		hash := cfg.Hash()
		work[i] = &cellWork{
			index: i,
			cfg:   cfg,
			hash:  hash,
			succ:  c.ring.Successors(hdls.HashKeyOf(hash)),
		}
	}
	// Initial placement: each cell goes to its ring home unless that home's
	// breaker refuses, in which case it starts life on a successor (this is
	// the proactive re-route of cells owned by a known-lost worker).
	batches := make(map[int][]*cellWork)
	for _, cw := range work {
		wi := c.pickWorker(cw.succ, 0)
		if wi < 0 {
			wi = cw.succ[0] // raced to all-open: dispatch will fail and retry
		}
		batches[wi] = append(batches[wi], cw)
	}

	// The client's X-Chaos header (if any) rides along on first-attempt
	// shard streams, so a fault can be injected through the coordinator at
	// armed workers while recovery still runs clean. The client key and the
	// margin-tightened deadline ride on every attempt (shardMeta).
	chaos := r.Header.Get("X-Chaos")
	meta := shardMeta{client: serve.ClientKey(r)}
	if !deadline.IsZero() {
		meta.deadline = deadline.Add(-c.opts.DeadlineMargin)
	}

	mg := newMerge(len(work))
	var wg sync.WaitGroup
	for wi, batch := range batches {
		wg.Add(1)
		go func(wi int, batch []*cellWork) {
			defer wg.Done()
			c.dispatch(ctx, wi, batch, 1, chaos, meta, mg)
		}(wi, batch)
	}
	// dispatch resolves every cell (result, worker error line, or fleet
	// error line), so draining the merge in order terminates; the deferred
	// cancel + Wait reap the shard goroutines if the client disconnects.
	defer wg.Wait()

	w.Header().Set("Content-Type", "application/x-ndjson")
	// The same loop as a single daemon's stream: it flushes only before it
	// waits for a cell. An error means the client went away.
	serve.StreamLines(r.Context(), w, len(work), mg.line, mg.wait)
}

// dispatch runs one shard attempt against worker wi and recursively
// retries whatever it leaves unresolved, with exponential backoff, against
// each cell's next ring successor. It returns only once every cell in
// batch is resolved in the merge. attempt counts this try (1-based);
// wi < 0 means no worker would admit the batch this round. chaos is the
// submission's X-Chaos header, forwarded on first attempts only (so
// injected faults hit initial placement, never the recovery path).
func (c *Coordinator) dispatch(ctx context.Context, wi int, batch []*cellWork, attempt int, chaos string, meta shardMeta, mg *merge) {
	var unresolved []*cellWork
	var hint time.Duration
	var cause error
	if wi < 0 {
		unresolved, cause = batch, errors.New("no fleet worker is available")
	} else {
		unresolved, hint, cause = c.streamShard(ctx, wi, batch, chaos, meta, mg)
	}
	if len(unresolved) == 0 || ctx.Err() != nil {
		return
	}
	if attempt >= c.opts.MaxAttempts {
		// Out of attempts: resolve in-band so the merged stream stays
		// well-formed — a fleet-level failure is a per-cell error line,
		// exactly the shape a worker uses for its own cell failures.
		for _, cw := range unresolved {
			msg := fmt.Sprintf("fleet: cell failed after %d attempts: %v", attempt, cause)
			if mg.deliver(cw.index, serve.ErrorCellLine(cw.index, cw.hash, msg)) {
				c.cells.Add(1)
				c.cellFailures.Add(1)
			}
		}
		return
	}
	c.retries.Add(int64(len(unresolved)))
	if err := c.sleep(ctx, c.retryDelay(attempt, hint, len(unresolved))); err != nil {
		return
	}
	// Regroup by each cell's next successor: retries walk the ring away
	// from the failure, and cells sharing a destination share one stream.
	regrouped := make(map[int][]*cellWork)
	for _, cw := range unresolved {
		nwi := c.pickWorker(cw.succ, attempt)
		if nwi >= 0 && nwi != wi {
			c.reroutes.Add(1)
		}
		regrouped[nwi] = append(regrouped[nwi], cw)
	}
	var wg sync.WaitGroup
	for nwi, g := range regrouped {
		wg.Add(1)
		go func(nwi int, g []*cellWork) {
			defer wg.Done()
			c.dispatch(ctx, nwi, g, attempt+1, "", meta, mg)
		}(nwi, g)
	}
	wg.Wait()
}

// workerLine is one parsed NDJSON line from a worker stream.
type workerLine struct {
	Index   int             `json:"index"`
	Hash    string          `json:"hash"`
	Summary json.RawMessage `json:"summary"`
	Error   string          `json:"error"`
}

// streamShard POSTs batch as one streaming sweep to worker wi and resolves
// cells as their lines arrive, enforcing the per-cell deadline between
// lines. Success lines are rebuilt around the worker's summary bytes with
// the cell's global index and the coordinator's own hash — that rebuild is
// what keeps the merged body byte-identical to a single daemon, no matter
// which worker served which cell. Worker error lines are deterministic
// (the worker ran the cell and the cell itself failed), so they resolve
// the cell too, without a retry. Anything else — transport error, non-200,
// protocol violation, deadline, truncation — fails the worker's breaker
// and returns the unresolved suffix of the batch for re-routing, except a
// 429: admission shedding means the worker is healthy but full, so it
// keeps its breaker closed and instead surfaces the worker's Retry-After
// as the returned backoff hint (503s carry their hint too, alongside the
// breaker failure).
func (c *Coordinator) streamShard(ctx context.Context, wi int, batch []*cellWork, chaos string, meta shardMeta, mg *merge) ([]*cellWork, time.Duration, error) {
	wk := c.workers[wi]
	body, err := shardBody(batch)
	if err != nil { // every cell passed validation; cannot fail
		return batch, 0, err
	}
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, wk.name+"/v1/sweep?stream=1", bytes.NewReader(body))
	if err != nil {
		return batch, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if chaos != "" {
		req.Header.Set("X-Chaos", chaos)
	}
	meta.apply(req)
	// The per-cell deadline must also bound the connect/first-header phase:
	// a stalled worker would otherwise pin the shard inside Do indefinitely.
	connTimer := time.AfterFunc(c.opts.CellTimeout, cancel)
	resp, err := c.opts.Client.Do(req)
	connTimer.Stop()
	if err != nil {
		wk.breaker.Fail()
		c.streamBreaks.Add(1)
		return batch, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		hint := parseRetryAfter(resp.Header)
		if resp.StatusCode == http.StatusTooManyRequests {
			// Shed by admission policy: the worker is alive and telling us
			// when to come back. Tripping its breaker would amplify the
			// overload into a routing outage.
			return batch, hint, fmt.Errorf("worker %s shed the shard (HTTP 429)", wk.name)
		}
		wk.breaker.Fail()
		c.streamBreaks.Add(1)
		return batch, hint, fmt.Errorf("worker %s answered HTTP %d", wk.name, resp.StatusCode)
	}

	// A reader goroutine feeds lines through a channel so the per-cell
	// deadline is a select, not a blocking Read; cancel() unblocks it.
	lines := make(chan []byte)
	readErr := make(chan error, 1)
	go func() {
		// readErr (buffered) receives exactly one value before lines closes,
		// so the !ok branch below can always collect the cause. Lines are
		// read by their delimiter, not scanned: NDJSON records end with a
		// newline, so a final fragment without one is a truncation artifact
		// (the worker died mid-line) and must never surface as a line —
		// even when the fragment happens to parse, first-wins merging would
		// resolve its cell from a record the worker never finished.
		defer close(lines)
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			b, err := br.ReadBytes('\n')
			if err != nil {
				switch {
				case err != io.EOF:
					readErr <- err
				case len(b) > 0:
					readErr <- fmt.Errorf("final line missing its newline: %w", io.ErrUnexpectedEOF)
				default:
					readErr <- nil // clean EOF; callers decide if it was early
				}
				return
			}
			if len(b) > maxStreamLine {
				readErr <- fmt.Errorf("stream line exceeds %d bytes", maxStreamLine)
				return
			}
			b = bytes.TrimRight(b, "\r\n")
			select {
			case lines <- b:
			case <-reqCtx.Done():
				readErr <- reqCtx.Err()
				return
			}
		}
	}()

	// fail marks the worker bad and cancels the in-flight request so the
	// reader goroutine unblocks; callers return the unresolved batch suffix.
	fail := func(err error) error {
		wk.breaker.Fail()
		c.streamBreaks.Add(1)
		cancel()
		return err
	}
	timer := time.NewTimer(c.opts.CellTimeout)
	defer timer.Stop()
	for next := 0; next < len(batch); next++ {
		cw := batch[next]
		timer.Reset(c.opts.CellTimeout)
		select {
		case <-reqCtx.Done():
			return batch[next:], 0, reqCtx.Err()
		case <-timer.C:
			return batch[next:], 0, fail(fmt.Errorf("worker %s: cell deadline %s exceeded", wk.name, c.opts.CellTimeout))
		case b, ok := <-lines:
			if !ok {
				// Stream ended before the shard's cells did: the worker died
				// mid-stream (SIGKILL, chaos drop/truncate, network loss).
				err := <-readErr
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				return batch[next:], 0, fail(fmt.Errorf("worker %s: stream truncated after %d/%d cells: %w",
					wk.name, next, len(batch), err))
			}
			var wl workerLine
			if err := json.Unmarshal(b, &wl); err != nil || wl.Index != next || wl.Hash != cw.hash {
				return batch[next:], 0, fail(fmt.Errorf("worker %s: protocol violation at shard cell %d", wk.name, next))
			}
			if wl.Error != "" {
				// The worker ran the cell and the cell failed: that outcome
				// is deterministic (same line a single daemon would emit),
				// so it resolves the cell — retrying would reproduce it.
				if mg.deliver(cw.index, serve.ErrorCellLine(cw.index, cw.hash, wl.Error)) {
					c.cells.Add(1)
					c.cellFailures.Add(1)
				}
				continue
			}
			if mg.deliver(cw.index, serve.CellLine(cw.index, cw.hash, wl.Summary)) {
				c.cells.Add(1)
			}
		}
	}
	wk.breaker.Success()
	return nil, 0, nil
}

// shardBody encodes a batch in the worker wire format, {"cells":[…]},
// with the bytes json.Marshal would write.
func shardBody(batch []*cellWork) ([]byte, error) {
	body := append(make([]byte, 0, 16+192*len(batch)), `{"cells":[`...)
	for i, cw := range batch {
		if i > 0 {
			body = append(body, ',')
		}
		var err error
		if body, err = cw.cfg.AppendJSON(body); err != nil {
			return nil, err
		}
	}
	return append(body, "]}"...), nil
}

// handleRun validates one cell and forwards it to its ring home (or, on
// failure, successive ring successors with backoff), relaying the worker
// response verbatim — /v1/run bodies are already a pure function of the
// config, so relaying preserves byte-identity and the X-Cache header.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	cells, deadline, ok := c.opts.Limits.ReadRequest(w, r, false)
	if !ok {
		return
	}
	cfg := cells[0]
	meta := shardMeta{client: serve.ClientKey(r)}
	if !deadline.IsZero() {
		meta.deadline = deadline.Add(-c.opts.DeadlineMargin)
	}
	c.runs.Add(1)
	body, err := json.Marshal(cfg)
	if err != nil {
		serve.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	relay := func(wk *worker, status int, hdr http.Header, respBody []byte) {
		for _, k := range []string{"Content-Type", "X-Cache", "X-Config-Hash", "Retry-After"} {
			if v := hdr.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.Header().Set("X-Fleet-Worker", wk.name)
		w.WriteHeader(status)
		w.Write(respBody)
	}
	succ := c.ring.Successors(cfg.HashKey())
	var lastErr error = errors.New("no fleet worker is available")
	var hint time.Duration
	prev := -1
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			delay := c.retryDelay(attempt-1, hint, 1)
			hint = 0
			if c.sleep(r.Context(), delay) != nil {
				return
			}
		}
		wi := c.pickWorker(succ, attempt-1)
		if wi < 0 {
			continue
		}
		if prev >= 0 && wi != prev {
			c.reroutes.Add(1)
		}
		prev = wi
		wk := c.workers[wi]
		status, hdr, respBody, err := c.forwardRun(r.Context(), wk, body, meta)
		switch {
		case err == nil && status == http.StatusTooManyRequests:
			// Shed by admission policy: the worker is healthy, so its
			// breaker stays closed; its Retry-After floors the next backoff
			// and a ring successor may have capacity right now.
			hint = parseRetryAfter(hdr)
			lastErr = fmt.Errorf("worker %s shed the run (HTTP 429)", wk.name)
			continue
		case err != nil || status >= 500:
			if err == nil && status == http.StatusGatewayTimeout {
				// The cell's deadline expired at the worker. Retrying with
				// an even-staler deadline cannot succeed; relay it.
				wk.breaker.Success()
				relay(wk, status, hdr, respBody)
				return
			}
			wk.breaker.Fail()
			hint = parseRetryAfter(hdr)
			lastErr = err
			if err == nil {
				lastErr = fmt.Errorf("worker %s answered HTTP %d", wk.name, status)
			}
			continue
		}
		wk.breaker.Success()
		relay(wk, status, hdr, respBody)
		return
	}
	c.shed.Add(1)
	w.Header().Set("Retry-After", c.retryAfter())
	serve.HTTPError(w, http.StatusServiceUnavailable, "cell failed after %d attempts: %v", c.opts.MaxAttempts, lastErr)
}

// forwardRun POSTs one cell to a worker under the cell deadline, stamping
// the client key and margin-tightened end-to-end deadline.
func (c *Coordinator) forwardRun(ctx context.Context, wk *worker, body []byte, meta shardMeta) (int, http.Header, []byte, error) {
	reqCtx, cancel := context.WithTimeout(ctx, c.opts.CellTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, wk.name+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	meta.apply(req)
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// proxyDiscovery relays the static discovery endpoints (/v1/techniques,
// /v1/workloads) from the first worker that answers: they are identical on
// every worker, so any answer is the fleet's answer.
func (c *Coordinator) proxyDiscovery(w http.ResponseWriter, r *http.Request) {
	for _, wk := range c.workers {
		if !wk.breaker.Available() {
			continue
		}
		reqCtx, cancel := context.WithTimeout(r.Context(), c.opts.CellTimeout)
		req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, wk.name+r.URL.Path, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := c.opts.Client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if v := resp.Header.Get("Content-Type"); v != "" {
			w.Header().Set("Content-Type", v)
		}
		w.Write(body)
		return
	}
	serve.HTTPError(w, http.StatusBadGateway, "no fleet worker answered %s", r.URL.Path)
}

// handleHealthz is the coordinator's liveness probe: 200 while the process
// answers HTTP, regardless of worker health (that is /readyz).
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"role\":\"coordinator\",\"uptime_seconds\":%.1f}\n",
		time.Since(c.started).Seconds())
}

// workerStatus is one /readyz row: a worker and its breaker position.
type workerStatus struct {
	Worker  string `json:"worker"`
	Breaker string `json:"breaker"`
}

// handleReadyz is the coordinator's readiness probe: ready while at least
// one worker's breaker admits traffic, 503 + Retry-After otherwise. The
// body lists every worker's breaker state either way, so a half-degraded
// fleet is visible before it becomes an outage.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	statuses := make([]workerStatus, len(c.workers))
	available := 0
	for i, wk := range c.workers {
		statuses[i] = workerStatus{Worker: wk.name, Breaker: wk.breaker.State().String()}
		if wk.breaker.Available() {
			available++
		}
	}
	status, code := "ready", http.StatusOK
	if available == 0 {
		status, code = "no-workers", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", c.retryAfter())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":            status,
		"role":              "coordinator",
		"workers":           len(c.workers),
		"workers_available": available,
		"fleet":             statuses,
	})
}

// handleMetrics exposes the coordinator's counters in the Prometheus text
// format: routing volume, retry/re-route pressure, breaker activity, shed
// traffic, and a per-worker breaker-state gauge.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	available := 0
	var opens int64
	for _, wk := range c.workers {
		if wk.breaker.Available() {
			available++
		}
		opens += wk.breaker.Opens()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	type metric struct {
		name, help, typ string
		value           float64
	}
	for _, m := range []metric{
		{"hdlsd_fleet_workers", "Configured fleet workers.", "gauge", float64(len(c.workers))},
		{"hdlsd_fleet_workers_available", "Workers whose breaker admits traffic.", "gauge", float64(available)},
		{"hdlsd_fleet_uptime_seconds", "Seconds since the coordinator started.", "gauge", time.Since(c.started).Seconds()},
		{"hdlsd_fleet_sweeps_total", "Sweep submissions coordinated.", "counter", float64(c.sweeps.Load())},
		{"hdlsd_fleet_runs_total", "Single-cell runs forwarded.", "counter", float64(c.runs.Load())},
		{"hdlsd_fleet_cells_total", "Cell results merged (error lines included).", "counter", float64(c.cells.Load())},
		{"hdlsd_fleet_retries_total", "Cell attempts re-dispatched after a failure.", "counter", float64(c.retries.Load())},
		{"hdlsd_fleet_reroutes_total", "Retries that moved to a different worker.", "counter", float64(c.reroutes.Load())},
		{"hdlsd_fleet_cell_failures_total", "Cells resolved as in-band error lines.", "counter", float64(c.cellFailures.Load())},
		{"hdlsd_fleet_stream_breaks_total", "Worker shard streams that failed mid-flight.", "counter", float64(c.streamBreaks.Load())},
		{"hdlsd_fleet_shed_total", "Submissions refused with 503 + Retry-After.", "counter", float64(c.shed.Load())},
		{"hdlsd_fleet_retry_after_honored_total", "Retries whose backoff was floored by a worker Retry-After hint.", "counter", float64(c.hintsHonored.Load())},
		{"hdlsd_fleet_breaker_opens_total", "Circuit-breaker trips across the fleet.", "counter", float64(opens)},
		{"hdlsd_fleet_probes_total", "Health probes sent.", "counter", float64(c.probes.Load())},
		{"hdlsd_fleet_probe_failures_total", "Health probes that failed.", "counter", float64(c.probeFails.Load())},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
	fmt.Fprintf(w, "# HELP hdlsd_fleet_breaker_state Worker breaker position (0 closed, 1 open, 2 half-open).\n# TYPE hdlsd_fleet_breaker_state gauge\n")
	for _, wk := range c.workers {
		fmt.Fprintf(w, "hdlsd_fleet_breaker_state{worker=%q} %d\n", wk.name, int(wk.breaker.State()))
	}
}
