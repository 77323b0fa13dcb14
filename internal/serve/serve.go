// Package serve implements hdlsd's sweep-as-a-service layer: HTTP handlers
// that run hierarchical DLS simulation cells on a bounded worker pool,
// stream per-cell results as NDJSON, and resolve results through the
// tiered content-addressed store (internal/castore) keyed by canonical
// config hash — deterministic simulations make a cell's summary a pure
// function of its canonical hdls.Config, so a hit at any tier (memory,
// disk, fleet peer) replays byte-identical bytes without touching the
// engine, and concurrent identical requests collapse onto one execution
// (DESIGN.md §9, §12).
//
// Endpoints:
//
//	POST /v1/run               one cell, JSON hdls.Config in, summary out
//	POST /v1/sweep             batched cells; ?stream=1 for inline NDJSON
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/results NDJSON stream, cells in index order
//	GET  /v1/cache/{hash}      raw stored summary bytes (fleet peer-fill)
//	GET  /v1/techniques        DLS technique discovery
//	GET  /v1/workloads         workload spec discovery
//	GET  /healthz              liveness (always 200 while the process serves)
//	GET  /readyz               readiness (503 + Retry-After on drain/overload)
//	GET  /metrics              Prometheus-style counters
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dls"
	"repro/hdls"
	"repro/internal/castore"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent cell simulations (default GOMAXPROCS).
	Workers int
	// CacheEntries bounds the store's in-memory LRU tier (default 4096
	// entries).
	CacheEntries int
	// CacheDir enables the store's on-disk tier at this directory, so
	// restarts are warm (default off). Entries are appended to one
	// checksummed log and verified on read; corruption is counted and
	// treated as a miss.
	CacheDir string
	// CacheDiskMax caps the disk tier's live entry bytes, LRU-evicted
	// (default 256 MiB; ignored without CacheDir). The log stays under
	// twice that plus 4 MiB.
	CacheDiskMax int64
	// PeerFetch, when non-nil, is probed on a local store miss before the
	// engine runs — fleet workers use it to pull a cell a ring peer
	// already computed (fleet.PeerFill builds the hook).
	PeerFetch castore.PeerFetch
	// MaxCells bounds the cell count of one sweep submission (default 4096).
	MaxCells int
	// QueueCapacity bounds queued-but-unstarted cells across all jobs;
	// submissions that would overflow it get 503 (default 65536).
	QueueCapacity int
	// MaxNodes bounds a cell's simulated node count (default 4096). The
	// machine model allocates per-node state during validation, so the
	// bound is enforced before any allocation sized by the request.
	MaxNodes int
	// MaxWorkersPerNode bounds a cell's per-node worker cap (default 4096).
	MaxWorkersPerNode int
	// MaxWorkloadN bounds a cell's workload iteration count (default 2²²,
	// the full-size PSIA loop). Workload profiles allocate O(n) float64s,
	// so this is the request's memory ceiling; checked via workload.SpecN
	// before the profile is built.
	MaxWorkloadN int
	// JobTTL bounds how long a completed job stays replayable under
	// /v1/jobs/{id} (default 15 minutes). Together with RetainedJobs it
	// caps job-store growth; evictions are counted on /metrics.
	JobTTL time.Duration
	// RetainedJobs caps how many completed jobs are retained for replay
	// (default 256); the oldest completed jobs are evicted first.
	RetainedJobs int
	// JournalDir enables the crash-recovery job journal at this directory
	// (default off): async sweep acceptances are persisted before any cell
	// runs, and incomplete journals are replayed at startup (DESIGN.md §13).
	JournalDir string
	// MaxActiveJobs bounds incomplete jobs; submissions past it are shed
	// with 429 + Retry-After instead of queued silently (default 1024).
	MaxActiveJobs int
	// MaxJobsPerClient bounds one client's incomplete jobs — the admission
	// key is the X-Client header or the remote host (default 64).
	MaxJobsPerClient int
	// Chaos, when non-empty, arms the deterministic fault-injection layer:
	// a static chaos spec (e.g. "truncate:lines=3,times=1"), or "header" to
	// inject only per-request via the X-Chaos header. Requests may override
	// the static spec with X-Chaos. Never enable in production; the fleet
	// tests and chaos harness use it to exercise every failure path.
	Chaos string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.MaxCells <= 0 {
		o.MaxCells = 4096
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 1 << 16
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 4096
	}
	if o.MaxWorkersPerNode <= 0 {
		o.MaxWorkersPerNode = 4096
	}
	if o.MaxWorkloadN <= 0 {
		o.MaxWorkloadN = 1 << 22
	}
	if o.JobTTL <= 0 {
		o.JobTTL = 15 * time.Minute
	}
	if o.RetainedJobs <= 0 {
		o.RetainedJobs = 256
	}
	return o
}

// Server wires the manager, tiered result store and HTTP handlers. Create
// with New, mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	opts    Options
	store   *castore.Store
	manager *Manager
	journal *jobJournal // nil when Options.JournalDir is unset
	mux     *http.ServeMux
	handler http.Handler // mux, possibly wrapped in the chaos layer
	started time.Time

	techOnce sync.Once
	techJSON []byte
}

// New builds a Server and starts its worker pool.
func New(opt Options) *Server {
	s, err := NewWithError(opt)
	if err != nil { // only a malformed Options.Chaos spec can fail
		panic(err)
	}
	return s
}

// NewWithError is New returning construction errors (a malformed
// Options.Chaos spec, an unusable Options.CacheDir) instead of panicking;
// cmd/hdlsd uses it to turn flag typos into a clean startup failure.
func NewWithError(opt Options) (*Server, error) {
	o := opt.withDefaults()
	store, err := castore.Open(castore.Options{
		MemEntries:   o.CacheEntries,
		Dir:          o.CacheDir,
		DiskMaxBytes: o.CacheDiskMax,
		Peers:        o.PeerFetch,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    o,
		store:   store,
		started: time.Now(),
	}
	if o.JournalDir != "" {
		s.journal, err = openJournal(o.JournalDir)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	s.manager = NewManager(ManagerConfig{
		Workers:          o.Workers,
		QueueCapacity:    o.QueueCapacity,
		JobTTL:           o.JobTTL,
		RetainedJobs:     o.RetainedJobs,
		MaxActiveJobs:    o.MaxActiveJobs,
		MaxJobsPerClient: o.MaxJobsPerClient,
		Journal:          s.journal,
		Store:            s.store,
	})
	if s.journal != nil {
		s.recoverJobs(s.journal.scan())
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	s.mux.HandleFunc("GET /v1/cache/{hash}", s.handleCacheLookup)
	s.mux.HandleFunc("GET /v1/techniques", s.handleTechniques)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.mux
	if o.Chaos != "" {
		h, err := Chaos(o.Chaos, s.mux)
		if err != nil {
			return nil, err
		}
		s.handler = h
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// recoverJobs resubmits incomplete journal records through the normal
// submission path, with their original ids, clients, and deadlines. Cells
// that completed before the crash come back as hit-disk from the castore,
// so replay costs roughly only the unfinished tail; an already-expired
// deadline resolves every cell as the frozen in-band "deadline exceeded"
// line, which is still a completed job the client can read. Replay
// bypasses admission control — the work was admitted before the crash —
// but not the cell-queue bound: a record that does not fit stays journaled
// on disk (SubmitWith only rewrites the record on acceptance) and is
// retried at the next restart, counted as a recovery failure here.
func (s *Server) recoverJobs(recs []journalRecord) {
	for _, rec := range recs {
		ctx := context.Background()
		var cancel context.CancelFunc
		if rec.Deadline != nil {
			ctx, cancel = context.WithDeadline(ctx, *rec.Deadline)
		}
		_, err := s.manager.SubmitWith(ctx, rec.Cells, SubmitOpts{
			ID:        rec.ID,
			Client:    rec.Client,
			Recovered: true,
			Journal:   true,
			Cancel:    cancel,
		})
		if err != nil {
			s.manager.recoveryFails.Add(1)
			if cancel != nil {
				cancel()
			}
		}
	}
}

// Drain stops accepting work, waits for accepted jobs (bounded by ctx),
// then flushes the store's pending disk writes. An aborted drain leaves
// the store open — cells may still be running and must be able to publish
// their results; a later successful Drain (or repeated calls — Close is
// idempotent) finishes the flush.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.manager.Drain(ctx); err != nil {
		return err
	}
	s.store.Close()
	return nil
}

// Store exposes the server's tiered result store, so tests can read its
// per-tier counters.
func (s *Server) Store() *castore.Store { return s.store }

// marshalSummary freezes a summary as compact JSON. Field order is fixed
// by the struct, so equal summaries marshal to equal bytes.
func marshalSummary(sum hdls.Summary) []byte {
	buf, err := json.Marshal(sum)
	if err != nil { // Summary is plain scalars; cannot fail
		panic(fmt.Sprintf("serve: marshal summary: %v", err))
	}
	return buf
}

// HTTPError writes a JSON error body with the given status. The fleet
// coordinator answers its own errors with it too.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(append(body, '\n'))
}

// maxTotalWorkers bounds Nodes × WorkersPerNode regardless of the
// per-axis limits: rank state is allocated per worker, so the product is
// the simulation's memory footprint.
const maxTotalWorkers = 1 << 20

// CheckCell validates one cell against these limits (zero fields take the
// defaults) — before hdls.Config validation, because validation itself
// builds the machine model and the workload profile, both sized by request
// fields — then runs the full validator.
func (o Options) CheckCell(cfg hdls.Config) error {
	o = o.withDefaults()
	c := cfg.Canonical()
	if c.Nodes > o.MaxNodes {
		return fmt.Errorf("nodes %d exceeds the service limit %d", c.Nodes, o.MaxNodes)
	}
	if c.WorkersPerNode > o.MaxWorkersPerNode {
		return fmt.Errorf("workers_per_node %d exceeds the service limit %d",
			c.WorkersPerNode, o.MaxWorkersPerNode)
	}
	if c.Nodes > 0 && c.WorkersPerNode > 0 && c.Nodes*c.WorkersPerNode > maxTotalWorkers {
		return fmt.Errorf("nodes × workers_per_node = %d exceeds the service limit %d",
			c.Nodes*c.WorkersPerNode, maxTotalWorkers)
	}
	if c.Workload != "" {
		n, err := workload.SpecN(c.Workload)
		if err != nil {
			return err
		}
		if n > o.MaxWorkloadN {
			return fmt.Errorf("workload %q has %d iterations, exceeding the service limit %d",
				c.Workload, n, o.MaxWorkloadN)
		}
	}
	return cfg.Validate()
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	// Cells lists one hdls.Config per simulation cell.
	Cells []hdls.Config `json:"cells"`
}

// maxBufferedBody caps the request body ReadRequest reads into one buffer
// sized from Content-Length. A body with no length, or a longer one,
// streams through json.Decoder, so a false Content-Length cannot make the
// reader allocate more than this. A 4096-cell sweep of small cells is
// about 600 KiB.
const maxBufferedBody = 1 << 20

// errTrailingData rejects a body with more than whitespace after its JSON
// value.
var errTrailingData = errors.New("unexpected data after the JSON value")

// ReadRequest reads a POST /v1/run body (one hdls.Config) or, with sweep
// set, a POST /v1/sweep body, plus the request's deadline, against these
// limits: strict JSON (unknown fields and trailing data fail loudly
// instead of running the default experiment), a sweep of 1 to MaxCells
// cells, every cell through CheckCell, then ParseDeadline. On the first
// failure it writes the 400 and returns ok = false. The daemon and the
// fleet coordinator both read requests here, so the coordinator rejects a
// request with exactly the 400 a worker would, instead of discovering
// validation failures shard by shard mid-dispatch.
//
// A body whose Content-Length is within maxBufferedBody is read once into
// a buffer. A plain sweep — {"cells":[…]} of configs that
// hdls.Config.DecodePlainJSON decodes — is decoded without reflection;
// any other body, and every error, goes through the strict json.Decoder
// over the same bytes, which alone words the 400s.
func (o Options) ReadRequest(w http.ResponseWriter, r *http.Request, sweep bool) (cells []hdls.Config, deadline time.Time, ok bool) {
	fail := func(format string, args ...any) ([]hdls.Config, time.Time, bool) {
		HTTPError(w, http.StatusBadRequest, format, args...)
		return nil, time.Time{}, false
	}
	o = o.withDefaults()
	body, src := bufferBody(r)
	if sweep {
		if cells, ok = plainSweep(body, o.MaxCells); !ok {
			var req sweepRequest
			if err := decodeStrict(src, &req); err != nil {
				return fail("invalid sweep request: %v", err)
			}
			cells = req.Cells
		}
		if len(cells) == 0 {
			return fail("sweep needs at least one cell")
		}
		if len(cells) > o.MaxCells {
			return fail("sweep of %d cells exceeds the %d-cell limit", len(cells), o.MaxCells)
		}
		for i, cfg := range cells {
			if err := o.CheckCell(cfg); err != nil {
				return fail("cell %d: %v", i, err)
			}
		}
	} else {
		cells = make([]hdls.Config, 1)
		if err := decodeStrict(src, &cells[0]); err != nil {
			return fail("invalid config: %v", err)
		}
		if err := o.CheckCell(cells[0]); err != nil {
			return fail("%v", err)
		}
	}
	deadline, err := ParseDeadline(r)
	if err != nil {
		return fail("%v", err)
	}
	return cells, deadline, true
}

// bufferBody returns the request body as a buffer, when its Content-Length
// is known and within maxBufferedBody, and a reader of the same bytes for
// the decoder. A body shorter than its length reaches the decoder as it
// would have streamed: what arrived, then the body's own error.
func bufferBody(r *http.Request) ([]byte, io.Reader) {
	if r.ContentLength <= 0 || r.ContentLength > maxBufferedBody {
		return nil, r.Body
	}
	body := make([]byte, r.ContentLength)
	if n, err := io.ReadFull(r.Body, body); err != nil {
		return nil, io.MultiReader(bytes.NewReader(body[:n]), r.Body)
	}
	return body, bytes.NewReader(body)
}

// decodeStrict decodes the one JSON value src holds into v, rejecting
// unknown fields and anything but whitespace after the value.
func decodeStrict(src io.Reader, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest := io.MultiReader(dec.Buffered(), src)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		if len(skipSpace(buf[:n])) > 0 {
			return errTrailingData
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// plainSweep decodes body when it is a plain sweep: {"cells":[…]} holding
// one to maxCells configs that hdls.Config.DecodePlainJSON decodes, with
// only whitespace around the tokens. Any other body returns ok = false.
func plainSweep(body []byte, maxCells int) (cells []hdls.Config, ok bool) {
	b, ok := plainPrefix(body, `{`, `"cells"`, `:`, `[`)
	if !ok {
		return nil, false
	}
	// A plain cell is a flat object, so the braces after the first count
	// the cells unless a string holds one: only the capacity rests on it.
	cells = make([]hdls.Config, 0, min(bytes.Count(b, []byte{'{'}), maxCells))
	for len(cells) < maxCells {
		cells = append(cells, hdls.Config{})
		if b, ok = cells[len(cells)-1].DecodePlainJSON(b); !ok {
			return nil, false
		}
		if b = skipSpace(b); len(b) > 0 && b[0] == ',' {
			b = b[1:]
			continue
		}
		if b, ok = plainPrefix(b, `]`, `}`); ok && len(skipSpace(b)) == 0 {
			return cells, true
		}
		return nil, false
	}
	return nil, false
}

// plainPrefix consumes the tokens from the front of b, each after
// optional whitespace, and returns what follows them.
func plainPrefix(b []byte, tokens ...string) ([]byte, bool) {
	for _, tok := range tokens {
		b = skipSpace(b)
		if !bytes.HasPrefix(b, []byte(tok)) {
			return b, false
		}
		b = b[len(tok):]
	}
	return b, true
}

// skipSpace drops JSON whitespace from the front of b.
func skipSpace(b []byte) []byte { return bytes.TrimLeft(b, " \t\r\n") }

// DefaultRetryAfter is the back-pressure hint, in seconds, on
// drain/saturation 503s: shed requests tell clients when to come back
// instead of letting them hammer a saturated daemon. Admission-control
// 429s carry a live hint derived from observed throughput instead
// (Manager.RetryAfterSeconds). The fleet coordinator sends the same hint
// on its capacity sheds.
const DefaultRetryAfter = "2"

// ClientKey returns a request's admission key: the X-Client header when
// present (the fleet coordinator forwards its caller's identity so the
// per-client budget follows the real client through the fleet), else the
// remote host. Exported for the coordinator and the load generator.
func ClientKey(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ParseDeadline extracts a request's end-to-end deadline: the absolute
// X-Deadline header (RFC 3339, nanosecond precision) wins over the
// relative ?timeout= Go duration. The zero time means unbounded. An
// already-expired deadline is NOT an error — the job is accepted and its
// cells resolve as in-band "deadline exceeded" lines, exactly as if the
// deadline had passed a microsecond after submission, so single-daemon and
// fleet behavior cannot diverge on the boundary. Exported for the fleet
// coordinator, which forwards the deadline minus its network margin.
func ParseDeadline(r *http.Request) (time.Time, error) {
	if h := r.Header.Get("X-Deadline"); h != "" {
		t, err := time.Parse(time.RFC3339Nano, h)
		if err != nil {
			return time.Time{}, fmt.Errorf("malformed X-Deadline %q: %v", h, err)
		}
		return t, nil
	}
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			return time.Time{}, fmt.Errorf("malformed timeout %q (want a positive Go duration)", q)
		}
		return time.Now().Add(d), nil
	}
	return time.Time{}, nil
}

// submitOrFail maps submission errors to HTTP rejections: queue/drain
// failures to 503, admission-control shedding (job limits) to 429, both
// with Retry-After — shed work is always explicit, never silently queued.
// The job's cells are tied to ctx: handlers pass the request context for
// synchronous (streaming) submissions so a client disconnect cancels the
// work, and a detached context for async jobs that must run to
// completion. nil job means the response has been written.
func (s *Server) submitOrFail(ctx context.Context, w http.ResponseWriter, cells []hdls.Config, opts SubmitOpts) *Job {
	job, err := s.manager.SubmitWith(ctx, cells, opts)
	if err != nil {
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClientBusy) {
			w.Header().Set("Retry-After", strconv.Itoa(s.manager.RetryAfterSeconds()))
			HTTPError(w, http.StatusTooManyRequests, "%v", err)
		} else {
			w.Header().Set("Retry-After", DefaultRetryAfter)
			HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return nil
	}
	return job
}

// handleRun runs a single cell synchronously through the worker pool and
// returns {"hash":…,"summary":…}. Identical configs are served from the
// tiered store with byte-identical bodies; X-Cache reports how the cell
// resolved ("hit", "hit-disk", "hit-peer", "collapsed", or "miss" for the
// one request that actually ran the engine).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	cells, deadline, ok := s.opts.ReadRequest(w, r, false)
	if !ok {
		return
	}
	hash := cells[0].Hash()
	if body, tier, ok := s.store.LookupLocal(hash); ok {
		// Cache hits dodge the deadline entirely: replaying frozen bytes is
		// effectively free, and refusing them would punish the cheap path.
		label := "hit"
		if tier == castore.TierDisk {
			label = "hit-disk"
		}
		writeRunBody(w, hash, body, label)
		return
	}
	ctx := r.Context()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	job := s.submitOrFail(ctx, w, cells, SubmitOpts{Client: ClientKey(r)})
	if job == nil {
		return
	}
	line, err := job.WaitCell(r.Context(), 0)
	if err != nil {
		HTTPError(w, http.StatusServiceUnavailable, "canceled: %v", err)
		return
	}
	// Slice the summary back out of the frozen cell line instead of
	// re-querying the store, so the hit/miss counters see only client
	// lookups. An error line (no summary prefix) means the cell failed
	// after validation — an internal fault, except for a deadline expiry,
	// which is the client's own bound and maps to 504 (non-retryable:
	// a passed deadline will not un-pass).
	prefix := appendLineHead(nil, 0, hash, "summary")
	if !bytes.HasPrefix(line, prefix) {
		status := http.StatusInternalServerError
		if bytes.Contains(line, []byte(`"error":"`+deadlineExceededMsg+`"`)) {
			status = http.StatusGatewayTimeout
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(append(bytes.Clone(line), '\n'))
		return
	}
	writeRunBody(w, hash, line[len(prefix):len(line)-1], job.Outcome(0).String())
}

// handleCacheLookup serves the raw stored summary bytes for a canonical
// config hash — the fleet peer-fill endpoint. Deliberately local-only
// (memory and disk tiers; never this daemon's own peer hook), so probe
// chains terminate after one hop and a cache miss can never cascade into
// a fleet-wide probe storm. 404 means "I don't have it; simulate it
// yourself".
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if len(hash) != 64 {
		HTTPError(w, http.StatusBadRequest, "malformed config hash %q", hash)
		return
	}
	body, tier, ok := s.store.LookupLocal(hash)
	if !ok {
		HTTPError(w, http.StatusNotFound, "hash %s not cached", hash)
		return
	}
	label := "hit"
	if tier == castore.TierDisk {
		label = "hit-disk"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", label)
	w.Header().Set("X-Config-Hash", hash)
	w.Write(body)
}

// writeRunBody writes the /v1/run response. The bytes around the cached
// summary are a pure function of the hash, so hit and miss responses for
// one config are byte-identical.
func writeRunBody(w http.ResponseWriter, hash string, summaryJSON []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Config-Hash", hash)
	body := fmt.Appendf(nil, `{"hash":%q,"summary":`, hash)
	body = append(body, summaryJSON...)
	body = append(body, '}', '\n')
	w.Write(body)
}

// handleSweep accepts a batch of cells. With ?stream=1 (or Accept:
// application/x-ndjson) it streams per-cell NDJSON results on this
// response as cells complete; otherwise it returns 202 with the job's
// status and results URLs.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	cells, deadline, ok := s.opts.ReadRequest(w, r, true)
	if !ok {
		return
	}
	// Streamed sweeps live and die with their request: the submitter is the
	// only reader, so its disconnect cancels the remaining cells. Async
	// jobs detach — their results are fetched later — and are the jobs the
	// journal makes durable: the 202 below is a promise that must survive a
	// crash. Either way a client deadline bounds the job end to end.
	stream := wantStream(r)
	opts := SubmitOpts{Client: ClientKey(r)}
	ctx := context.Background()
	if stream {
		ctx = r.Context()
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
	} else {
		opts.Journal = true
		if !deadline.IsZero() {
			// The cancel releases the deadline timer once the last cell
			// completes; SubmitWith stores it on the job.
			ctx, opts.Cancel = context.WithDeadline(ctx, deadline)
		}
	}
	job := s.submitOrFail(ctx, w, cells, opts)
	if job == nil {
		if opts.Cancel != nil {
			opts.Cancel()
		}
		return
	}
	if stream {
		s.streamJob(w, r, job)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	resp := map[string]any{
		"job_id":      job.ID,
		"cells":       job.Cells(),
		"status_url":  "/v1/jobs/" + job.ID,
		"results_url": "/v1/jobs/" + job.ID + "/results",
	}
	json.NewEncoder(w).Encode(resp)
}

// wantStream reports whether a sweep submission asked for inline NDJSON:
// ?stream with any truthy value ("1", "true", "yes", or bare), or an
// NDJSON Accept header. "0", "false" and "no" explicitly select the
// async 202 response.
func wantStream(r *http.Request) bool {
	if r.Header.Get("Accept") == "application/x-ndjson" {
		return true
	}
	if !r.URL.Query().Has("stream") {
		return false
	}
	switch strings.ToLower(r.URL.Query().Get("stream")) {
	case "0", "false", "no":
		return false
	}
	return true
}

// handleJobStatus reports a job's progress.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Job(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	completed, failed := job.Progress()
	status := "running"
	if completed == job.Cells() {
		status = "done"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"id":        job.ID,
		"status":    status,
		"cells":     job.Cells(),
		"completed": completed,
		"failed":    failed,
		"cache":     job.CacheCounts(),
		"created":   job.Created.UTC().Format(time.RFC3339Nano),
		"recovered": job.Recovered,
	})
}

// handleJobResults streams (or replays) a job's per-cell NDJSON lines.
// The Acquire pin is held for the life of the stream so TTL/count-cap
// eviction cannot drop the job from the store while this replay is still
// consuming it (Manager.Acquire).
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	job, release, ok := s.manager.Acquire(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	defer release()
	s.streamJob(w, r, job)
}

// streamJob writes the job's cells as NDJSON in index order through
// StreamLines: lines already complete go out back to back, and the stream
// flushes only before it waits for a cell. Index order makes the whole
// body a pure function of the cell list: re-running an identical sweep —
// cached or not — yields byte-identical output, while the head-of-line
// discipline still delivers early cells long before the sweep finishes.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Id", job.ID)
	// An error means the client went away; workers finish the job regardless.
	StreamLines(r.Context(), w, job.Cells(), job.line, job.WaitCell)
}

// newline ends every streamed NDJSON line.
var newline = []byte{'\n'}

// StreamLines writes lines 0..n-1 to w in index order, each followed by a
// newline: the response loop of every NDJSON sweep stream, the fleet
// coordinator's merged stream included. ready(i) returns line i if it is
// already complete and nil otherwise; wait(ctx, i) blocks until line i is
// complete or ctx ends, and its error ends the stream.
//
// The loop flushes only just before it blocks, and the handler's return
// flushes the tail. Lines that are complete are written back to back, so
// a replayed sweep whose lines are all ready costs a few buffer-sized
// writes instead of one chunk and one write per line. No line waits on a
// cell behind it: every line written before the stream stalls is flushed
// before the stall. A flush that would carry no line is skipped, so the
// response headers leave with the first line.
func StreamLines(ctx context.Context, w http.ResponseWriter, n int,
	ready func(i int) []byte, wait func(ctx context.Context, i int) ([]byte, error)) error {
	flusher, _ := w.(http.Flusher)
	unflushed := false
	for i := 0; i < n; i++ {
		line := ready(i)
		if line == nil {
			if unflushed && flusher != nil {
				flusher.Flush()
				unflushed = false
			}
			var err error
			if line, err = wait(ctx, i); err != nil {
				return err
			}
		}
		w.Write(line)
		w.Write(newline)
		unflushed = true
	}
	return nil
}

// techniqueInfo is one /v1/techniques row.
type techniqueInfo struct {
	// Name is the conventional technique name (dls.Technique.String).
	Name string `json:"name"`
	// Adaptive marks techniques that learn from runtime measurements.
	Adaptive bool `json:"adaptive"`
	// Weighted marks techniques whose chunks depend on the worker.
	Weighted bool `json:"weighted"`
	// InterOK reports whether the technique is accepted at the inter-node
	// level (probed against hdls.Config.Validate; approach-independent).
	InterOK bool `json:"inter_ok"`
	// IntraOK reports intra-node acceptance under the proposed MPI+MPI
	// executor.
	IntraOK bool `json:"intra_ok"`
	// IntraOpenMPOK reports intra-node acceptance under MPI+OpenMP on the
	// stock runtime — the paper's Intel stack, which lacks TSS/FAC2
	// schedules (they need extended_runtime).
	IntraOpenMPOK bool `json:"intra_openmp_ok"`
}

// handleTechniques lists every DLS technique with its hierarchy-level
// support, computed once by probing the real validator so the endpoint
// can never drift from what POST /v1/run actually accepts.
func (s *Server) handleTechniques(w http.ResponseWriter, r *http.Request) {
	s.techOnce.Do(func() {
		probe := func(cfg hdls.Config) bool {
			cfg.Workload = "constant:n=64"
			cfg.Nodes = 2
			return cfg.Validate() == nil
		}
		var infos []techniqueInfo
		for _, t := range dls.All() {
			infos = append(infos, techniqueInfo{
				Name:          t.String(),
				Adaptive:      t.IsAdaptive(),
				Weighted:      t.IsWeighted(),
				InterOK:       probe(hdls.Config{Inter: t, Intra: dls.STATIC}),
				IntraOK:       probe(hdls.Config{Inter: dls.STATIC, Intra: t, Approach: hdls.MPIMPI}),
				IntraOpenMPOK: probe(hdls.Config{Inter: dls.STATIC, Intra: t, Approach: hdls.MPIOpenMP}),
			})
		}
		s.techJSON, _ = json.Marshal(map[string]any{"techniques": infos})
		s.techJSON = append(s.techJSON, '\n')
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.techJSON)
}

// handleWorkloads lists the synthetic workload spec kinds plus the two
// paper applications accepted by Config.App.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"apps":  []string{hdls.Mandelbrot.String(), hdls.PSIA.String()},
		"specs": workload.SpecKinds(),
	})
}

// handleHealthz is the liveness probe: 200 for as long as the process can
// answer HTTP at all, draining included. Liveness deliberately says nothing
// about whether the daemon wants traffic — that is /readyz — so orchestrators
// don't kill a pod that is merely draining or saturated.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.1f}\n", time.Since(s.started).Seconds())
}

// handleReadyz is the readiness probe: 503 with a Retry-After hint once the
// daemon drains or its cell queue saturates, so load balancers and fleet
// coordinators stop routing before submissions start bouncing. The body
// reports the drain state and worker-pool saturation either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.manager.Stats()
	capacity := s.manager.QueueCapacity()
	draining := s.manager.Draining()
	saturated := st.QueueDepth >= int64(capacity)
	status := "ready"
	code := http.StatusOK
	switch {
	case draining:
		status, code = "draining", http.StatusServiceUnavailable
	case saturated:
		status, code = "saturated", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.Header().Set("Retry-After", DefaultRetryAfter)
		w.WriteHeader(code)
	}
	fmt.Fprintf(w, "{\"status\":%q,\"draining\":%t,\"queue_depth\":%d,\"queue_capacity\":%d,\"workers\":%d,\"active_jobs\":%d}\n",
		status, draining, st.QueueDepth, capacity, s.opts.Workers, st.ActiveJobs)
}
