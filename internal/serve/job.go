package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/hdls"
	"repro/internal/castore"
)

// Submission errors surfaced as HTTP statuses by the handlers.
var (
	// ErrDraining rejects new work while the daemon drains (503).
	ErrDraining = errors.New("serve: draining, not accepting new jobs")
	// ErrBusy rejects work that does not fit the bounded cell queue (503).
	ErrBusy = errors.New("serve: cell queue full")
	// ErrOverloaded rejects a submission that would exceed the bounded
	// pending-jobs limit (429 + Retry-After): accepted work is never
	// silently queued beyond what the daemon admits it can serve.
	ErrOverloaded = errors.New("serve: active-job limit reached")
	// ErrClientBusy rejects a submission whose client already has its full
	// allowance of in-flight jobs (429 + Retry-After), so one aggressive
	// client cannot monopolize the admission budget.
	ErrClientBusy = errors.New("serve: per-client in-flight job limit reached")
)

// deadlineExceededMsg is the frozen in-band error for a cell refused (or
// aborted) because its end-to-end deadline passed. Deterministic — no
// timestamps — so a deadline-expired cell line from a fleet worker is
// byte-identical to a single daemon's.
const deadlineExceededMsg = "deadline exceeded"

// Job is one accepted sweep: a batch of cells running on the manager's
// worker pool. Each cell's result is frozen as a complete NDJSON line;
// lines are retained so streams can be replayed after completion.
type Job struct {
	// ID addresses the job under /v1/jobs/{id}.
	ID string
	// Created is the submission time.
	Created time.Time
	// Client is the admission key the job was accepted under (X-Client
	// header or remote address); empty for internal submissions.
	Client string
	// Recovered marks a job replayed from the journal after a restart.
	Recovered bool

	mgr   *Manager
	cells []hdls.Config
	// ctx is the submitter's context: canceled when a streaming client
	// disconnects, so queued cells are skipped and the in-flight cell's
	// simulation aborts instead of running the sweep to completion.
	// Async (202) submissions carry context.Background() and always finish,
	// unless an end-to-end deadline bounds them.
	ctx context.Context
	// deadline is the job's end-to-end deadline (zero = none), snapshotted
	// from ctx at submission so the refuse-expired-cells check needs no
	// context machinery on the hot path.
	deadline time.Time
	// cancel releases the deadline timer backing an async job's context;
	// called once the last cell completes.
	cancel context.CancelFunc
	// journaled marks jobs with an acceptance record on disk: completion
	// must append the terminal record.
	journaled bool

	mu        sync.Mutex
	cond      *sync.Cond
	lines     [][]byte          // per-cell NDJSON line, newline excluded
	outcomes  []castore.Outcome // how the store resolved each completed cell
	completed int
	failed    int

	// finished is when the last cell completed (zero while running). It is
	// written under both the manager's mu and j.mu, and read by eviction
	// under the manager's mu.
	finished time.Time
	// pins counts in-flight readers (results replays) holding the job.
	// Guarded by the MANAGER's mu, not j.mu: pin/unpin and the eviction
	// decision in evictLocked must be atomic with respect to each other.
	pins int
}

// newJob freezes the cell list and allocates completion tracking.
func newJob(ctx context.Context, mgr *Manager, id string, cells []hdls.Config) *Job {
	j := &Job{
		ID:       id,
		Created:  time.Now(),
		mgr:      mgr,
		cells:    cells,
		ctx:      ctx,
		lines:    make([][]byte, len(cells)),
		outcomes: make([]castore.Outcome, len(cells)),
	}
	if dl, ok := ctx.Deadline(); ok {
		j.deadline = dl
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Deadline reports the job's end-to-end deadline (zero when unbounded).
func (j *Job) Deadline() time.Time { return j.deadline }

// Cells returns the number of cells in the job.
func (j *Job) Cells() int { return len(j.cells) }

// Progress reports completed and failed cell counts.
func (j *Job) Progress() (completed, failed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed, j.failed
}

// Done reports whether every cell has completed.
func (j *Job) Done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed == len(j.cells)
}

// complete records cell idx's frozen line and store outcome, and wakes
// streamers.
func (j *Job) complete(idx int, line []byte, failed bool, outcome castore.Outcome) {
	m := j.mgr
	j.mu.Lock()
	last := j.completed == len(j.cells)-1
	if last {
		// The final cell retires the job under the manager's lock, in the
		// same critical section that makes Done() true, so whoever sees
		// Done() also finds the job in the next eviction pass. No other
		// cell can complete meanwhile, so j.mu can be dropped to take the
		// locks in order: the manager's, then the job's.
		j.mu.Unlock()
		m.mu.Lock()
		j.mu.Lock()
	}
	j.lines[idx] = line
	j.outcomes[idx] = outcome
	j.completed++
	if failed {
		j.failed++
	}
	if last {
		j.finished = time.Now()
		m.retireLocked(j)
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	if last {
		m.mu.Unlock()
	}
	m.noteCellDone()
	if last {
		m.activeJobs.Add(-1)
		m.jobDone(j)
		m.jobWG.Done()
	}
}

// Outcome reports how the store resolved cell idx; meaningful only after
// the cell completed (WaitCell returned its line).
func (j *Job) Outcome(idx int) castore.Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	if idx < 0 || idx >= len(j.outcomes) {
		return castore.Computed
	}
	return j.outcomes[idx]
}

// CacheCounts tallies the job's completed cells by store outcome — the
// per-tier breakdown the job-status JSON reports.
type CacheCounts struct {
	Computed  int `json:"computed"`  // cells that ran the engine
	Collapsed int `json:"collapsed"` // cells that joined a concurrent identical flight
	MemHits   int `json:"mem_hits"`  // cells served by the memory tier
	DiskHits  int `json:"disk_hits"` // cells served by the disk tier
	PeerHits  int `json:"peer_hits"` // cells filled from a fleet peer
}

// CacheCounts reports the per-tier resolution breakdown of the job's
// completed cells.
func (j *Job) CacheCounts() CacheCounts {
	j.mu.Lock()
	defer j.mu.Unlock()
	var c CacheCounts
	for idx, line := range j.lines {
		if line == nil {
			continue
		}
		switch j.outcomes[idx] {
		case castore.Collapsed:
			c.Collapsed++
		case castore.HitMem:
			c.MemHits++
		case castore.HitDisk:
			c.DiskHits++
		case castore.HitPeer:
			c.PeerHits++
		default:
			c.Computed++
		}
	}
	return c
}

// WaitCell blocks until cell idx's line is available or ctx is canceled.
// A completed cell returns at once; only a cell still running arms the
// cancellation wakeup and parks. Streamers call it in index order (see
// StreamLines), so results flow to the client as the head-of-line cell
// completes while later cells are still running.
func (j *Job) WaitCell(ctx context.Context, idx int) ([]byte, error) {
	if idx < 0 || idx >= len(j.cells) {
		return nil, fmt.Errorf("serve: cell %d out of range", idx)
	}
	if line := j.line(idx); line != nil {
		return line, nil
	}
	// The wakeup must take j.mu before broadcasting: a bare Broadcast could
	// fire in the window between a waiter's ctx check and its cond.Wait,
	// waking nobody and leaving the waiter parked until the next cell
	// completes. Holding the lock forces the broadcast to order after the
	// waiter has either parked (wakes it) or not yet checked ctx (it will
	// see the cancellation).
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.lines[idx] == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		j.cond.Wait()
	}
	return j.lines[idx], nil
}

// line returns cell idx's frozen line if the cell has completed, else nil.
func (j *Job) line(idx int) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines[idx]
}

// Manager owns the bounded worker pool that executes cells, the job
// registry, and the tiered result store. One manager serves the whole
// daemon; its worker count bounds simultaneous simulations regardless of
// how many HTTP requests are in flight, so the arena pool (DESIGN.md §8)
// sees at most Workers concurrent arenas.
type Manager struct {
	store        *castore.Store
	queue        chan cellTask
	jobTTL       time.Duration // completed-job retention time
	maxJobs      int           // completed-job retention count cap
	maxActive    int           // admission bound on incomplete jobs
	maxPerClient int           // admission bound on one client's incomplete jobs
	janitorStop  chan struct{}
	// journal is the optional durability sink (nil = off): SubmitWith writes
	// the acceptance record before enqueueing, jobDone appends the terminal
	// record. See journal.go and DESIGN.md §13.
	journal *jobJournal

	mu   sync.Mutex
	jobs map[string]*Job
	// retired queues completed jobs in completion order, oldest first;
	// eviction pops its head, so a pass costs O(jobs evicted). held keeps
	// the completed jobs that reached the head while pinned (see Acquire),
	// oldest first: they still count against the cap, and every pass
	// re-examines them.
	retired     []*Job
	held        []*Job
	clients     map[string]int // incomplete jobs per admission key
	queueClosed bool

	seq        atomic.Int64
	draining   atomic.Bool
	jobWG      sync.WaitGroup // accepted, not yet fully completed jobs
	workerWG   sync.WaitGroup
	queueDepth atomic.Int64
	activeJobs atomic.Int64

	jobsTotal      atomic.Int64
	jobsEvicted    atomic.Int64
	jobsShed       atomic.Int64 // submissions rejected by admission control
	jobsRecovered  atomic.Int64 // journal records replayed at startup
	recoveryFails  atomic.Int64 // journal records that could not be replayed
	cellsTotal     atomic.Int64
	cellsCached    atomic.Int64
	cellsCollapsed atomic.Int64
	cellsCanceled  atomic.Int64
	cellsExpired   atomic.Int64 // cells refused/aborted past their deadline
	cellErrors     atomic.Int64

	// EWMA of the cell completion rate (cells/s), fed by every complete()
	// and read by RetryAfterSeconds to turn the queue backlog into an
	// honest Retry-After hint for shed clients.
	ewmaMu   sync.Mutex
	ewmaRate float64
	ewmaLast time.Time
}

type cellTask struct {
	job *Job
	idx int
}

// ManagerConfig sizes a Manager. Zero values take the documented defaults.
type ManagerConfig struct {
	// Workers is the cell worker pool size (default GOMAXPROCS).
	Workers int
	// QueueCapacity bounds the cell queue (default 65536).
	QueueCapacity int
	// JobTTL retains completed jobs for replay this long (default 15m).
	JobTTL time.Duration
	// RetainedJobs caps how many completed jobs stay addressable
	// (default 256).
	RetainedJobs int
	// MaxActiveJobs bounds incomplete jobs; submissions past it shed with
	// ErrOverloaded rather than queue silently (default 1024).
	MaxActiveJobs int
	// MaxJobsPerClient bounds one admission key's incomplete jobs
	// (default 64).
	MaxJobsPerClient int
	// Journal, when non-nil, makes accepted async jobs crash-recoverable.
	Journal *jobJournal
	// Store is the tiered result store (required).
	Store *castore.Store
}

// NewManager starts the worker pool and janitor for cfg.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1 << 16
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	if cfg.RetainedJobs <= 0 {
		cfg.RetainedJobs = 256
	}
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = 1024
	}
	if cfg.MaxJobsPerClient <= 0 {
		cfg.MaxJobsPerClient = 64
	}
	m := &Manager{
		store:        cfg.Store,
		queue:        make(chan cellTask, cfg.QueueCapacity),
		jobTTL:       cfg.JobTTL,
		maxJobs:      cfg.RetainedJobs,
		maxActive:    cfg.MaxActiveJobs,
		maxPerClient: cfg.MaxJobsPerClient,
		journal:      cfg.Journal,
		janitorStop:  make(chan struct{}),
		jobs:         make(map[string]*Job),
		clients:      make(map[string]int),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workerWG.Add(1)
		go m.worker()
	}
	go m.janitor()
	return m
}

// Submit accepts a batch of cells as one job whose cells always run to
// completion (context.Background). Streaming handlers use SubmitCtx instead
// so a client disconnect cancels the work.
func (m *Manager) Submit(cells []hdls.Config) (*Job, error) {
	return m.SubmitCtx(context.Background(), cells)
}

// SubmitCtx accepts a batch of cells as one job; see SubmitWith.
func (m *Manager) SubmitCtx(ctx context.Context, cells []hdls.Config) (*Job, error) {
	return m.SubmitWith(ctx, cells, SubmitOpts{})
}

// SubmitOpts carries a submission's admission and durability attributes.
type SubmitOpts struct {
	// Client is the admission key (ClientKey of the request); empty skips
	// the per-client cap (internal submissions, recovery).
	Client string
	// ID reuses a recovered job's identity so clients' status URLs survive
	// a restart; empty allocates the next sequence id.
	ID string
	// Recovered marks a journal replay: it bypasses admission control
	// (the work was already accepted before the crash) and is counted.
	Recovered bool
	// Journal writes the acceptance record before enqueueing, making the
	// job crash-recoverable. No-op when the manager has no journal.
	Journal bool
	// Cancel, when non-nil, is invoked once the last cell completes —
	// releases the deadline timer backing an async job's context.
	Cancel context.CancelFunc
}

// SubmitWith accepts a batch of cells as one job and enqueues every cell
// on the worker pool; ctx cancellation skips the job's unstarted cells and
// aborts its in-flight simulations, and a ctx deadline becomes the job's
// end-to-end deadline (expired cells resolve as in-band error lines).
//
// Admission is explicit, never silent: ErrDraining during shutdown,
// ErrBusy when the cell queue cannot hold the whole batch (503s), and
// ErrOverloaded / ErrClientBusy when the active-job or per-client bound is
// hit (429s with a Retry-After derived from observed throughput). Partial
// enqueues never happen, so a rejected submission leaves no orphaned work.
//
// When opts.Journal is set and the manager has a journal, the acceptance
// record is persisted before any cell can run; journal write failure is
// fail-open (counted, job still accepted) — durability degrades before
// availability does.
func (m *Manager) SubmitWith(ctx context.Context, cells []hdls.Config, opts SubmitOpts) (*Job, error) {
	if len(cells) == 0 {
		return nil, errors.New("serve: empty cell list")
	}
	m.mu.Lock()
	// Re-checked under mu: Drain closes the queue only after setting the
	// flag and waiting out accepted jobs, so a submission that sees the
	// flag clear here enqueues strictly before the close.
	if m.draining.Load() {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	// Recovered jobs skip the admission bounds: they were admitted before
	// the crash, and re-shedding them would turn a restart into data loss.
	// The cell-queue capacity check still applies — it protects memory.
	if !opts.Recovered {
		if int(m.activeJobs.Load()) >= m.maxActive {
			m.jobsShed.Add(1)
			m.mu.Unlock()
			return nil, ErrOverloaded
		}
		if opts.Client != "" && m.clients[opts.Client] >= m.maxPerClient {
			m.jobsShed.Add(1)
			m.mu.Unlock()
			return nil, ErrClientBusy
		}
	}
	// Holding mu across the capacity check and enqueue makes the
	// all-or-nothing guarantee: Submit is the only sender.
	if len(m.queue)+len(cells) > cap(m.queue) {
		m.mu.Unlock()
		return nil, ErrBusy
	}
	id := opts.ID
	if id == "" {
		id = fmt.Sprintf("job-%d", m.seq.Add(1))
	} else {
		m.bumpSeq(id)
	}
	if _, dup := m.jobs[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: job id %q already in use", id)
	}
	j := newJob(ctx, m, id, cells)
	j.Client = opts.Client
	j.Recovered = opts.Recovered
	j.cancel = opts.Cancel
	if opts.Journal && m.journal != nil {
		// Record before the first cell can complete, so the terminal append
		// can never race the acceptance write. Errors are fail-open: the
		// journal counts them, the job runs without a safety net.
		if err := m.journal.record(j); err == nil {
			j.journaled = true
		}
	}
	m.jobs[id] = j
	if opts.Client != "" {
		m.clients[opts.Client]++
	}
	m.evictLocked(time.Now())
	m.jobWG.Add(1)
	m.jobsTotal.Add(1)
	if opts.Recovered {
		m.jobsRecovered.Add(1)
	}
	m.activeJobs.Add(1)
	for i := range cells {
		m.queue <- cellTask{job: j, idx: i}
		m.queueDepth.Add(1)
	}
	m.mu.Unlock()
	return j, nil
}

// bumpSeq advances the id sequence past a recovered "job-N" id so fresh
// submissions never collide with replayed jobs. Caller holds m.mu (only
// for consistency of intent — the CAS loop itself is lock-free).
func (m *Manager) bumpSeq(id string) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return
	}
	for {
		cur := m.seq.Load()
		if cur >= n || m.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// retireLocked runs once per job, as its last cell completes: queue the
// job for retention and free the client's admission slot. Caller holds
// m.mu.
func (m *Manager) retireLocked(j *Job) {
	m.retired = append(m.retired, j)
	if j.Client != "" {
		if n := m.clients[j.Client]; n <= 1 {
			delete(m.clients, j.Client)
		} else {
			m.clients[j.Client] = n - 1
		}
	}
}

// jobDone runs once per job, after its last cell completes and the job
// retired: release the deadline timer and append the journal's terminal
// record so a restart will not replay the job.
func (m *Manager) jobDone(j *Job) {
	if j.cancel != nil {
		j.cancel()
	}
	if j.journaled {
		m.journal.finish(j)
	}
}

// Job looks up a retained job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Acquire looks up a retained job and pins it against retention eviction
// until the returned release is called (release is idempotent). Handlers
// that replay a job's results hold the pin for the life of the stream:
// without it, a TTL or count-cap eviction racing the replay drops the job
// from the store while a reader is still consuming it, so the job 404s
// for status polls and resume attempts mid-stream even though its results
// are actively being served. A pinned job is simply skipped by
// evictLocked; the janitor collects it on its next tick once the last
// pin drops.
func (m *Manager) Acquire(id string) (*Job, func(), bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, false
	}
	j.pins++
	var once sync.Once
	release := func() {
		once.Do(func() {
			m.mu.Lock()
			j.pins--
			m.mu.Unlock()
		})
	}
	return j, release, true
}

// QueueCapacity reports the cell queue's bound (for saturation reporting).
func (m *Manager) QueueCapacity() int { return cap(m.queue) }

// noteCellDone feeds the completion-rate EWMA (alpha 0.2 on the
// instantaneous inter-completion rate). Cheap enough to run per cell; the
// rate is only a hint, so lock contention here is the real budget.
func (m *Manager) noteCellDone() {
	now := time.Now()
	m.ewmaMu.Lock()
	if !m.ewmaLast.IsZero() {
		if dt := now.Sub(m.ewmaLast).Seconds(); dt > 0 {
			inst := 1.0 / dt
			if m.ewmaRate == 0 {
				m.ewmaRate = inst
			} else {
				m.ewmaRate = 0.2*inst + 0.8*m.ewmaRate
			}
		}
	}
	m.ewmaLast = now
	m.ewmaMu.Unlock()
}

// RetryAfterSeconds estimates how long a shed client should wait before
// retrying: the current cell backlog divided by the observed completion
// rate, clamped to [1s, 60s]. With no throughput signal yet (cold start)
// it answers a flat 2s. The hint is deliberately conservative and honest —
// never "retry immediately" while a backlog exists.
func (m *Manager) RetryAfterSeconds() int {
	m.ewmaMu.Lock()
	rate := m.ewmaRate
	m.ewmaMu.Unlock()
	if rate <= 0 {
		return 2
	}
	secs := int(math.Ceil(float64(m.queueDepth.Load()) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// evictLocked drops completed jobs that aged past the TTL, and the oldest
// completed jobs beyond the retention count cap. Running jobs are never
// evicted: their submitters still hold the *Job, and the worker pool still
// feeds it. Pinned jobs (in-flight results replays, see Acquire) are never
// evicted either — eviction is deferred to the janitor tick after the last
// reader releases.
//
// Completed jobs wait in completion order, so finish times ascend along
// m.retired and the pass stops at the first job it keeps: it costs
// O(jobs evicted + jobs held), not O(jobs retained).
func (m *Manager) evictLocked(now time.Time) {
	completed := len(m.held) + len(m.retired)
	evictable := func(j *Job) bool {
		return completed > m.maxJobs || now.Sub(j.finished) > m.jobTTL
	}
	kept := m.held[:0]
	for _, j := range m.held {
		if j.pins == 0 && evictable(j) {
			m.evict(j)
			completed--
			continue
		}
		kept = append(kept, j)
	}
	clear(m.held[len(kept):])
	m.held = kept
	for len(m.retired) > 0 && evictable(m.retired[0]) {
		j := m.retired[0]
		m.retired[0] = nil
		m.retired = m.retired[1:]
		if j.pins > 0 {
			m.held = append(m.held, j)
			continue
		}
		m.evict(j)
		completed--
	}
}

// evict drops a completed job from the store. Caller holds m.mu.
func (m *Manager) evict(j *Job) {
	delete(m.jobs, j.ID)
	m.jobsEvicted.Add(1)
}

// janitor evicts TTL-expired jobs even when no submissions arrive. Stopped
// by Drain.
func (m *Manager) janitor() {
	interval := m.jobTTL / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.mu.Lock()
			m.evictLocked(time.Now())
			m.mu.Unlock()
		}
	}
}

// worker executes queued cells until the queue closes during drain.
func (m *Manager) worker() {
	defer m.workerWG.Done()
	for task := range m.queue {
		m.queueDepth.Add(-1)
		m.runCell(task)
	}
}

// runCell resolves one cell through the tiered store: memory, disk, a
// fleet peer, or hdls.RunSummaryCtx (the pooled-arena path) — with
// concurrent identical cells collapsed onto a single engine execution by
// the store's singleflight. The frozen NDJSON line embeds the stored
// summary bytes verbatim, so identical cells produce byte-identical lines
// regardless of which tier served them. A canceled job short-circuits:
// queued cells are skipped and the in-flight simulation aborts; canceled
// outcomes are never cached, so a later resubmission of the same cell
// recomputes the real result.
func (m *Manager) runCell(task cellTask) {
	cfg := task.job.cells[task.idx]
	hash := cfg.Hash()
	m.cellsTotal.Add(1)
	// Refuse cells whose end-to-end deadline already passed: running them
	// would burn worker time producing results nobody is waiting for. The
	// refusal is an in-band error line with a frozen, timestamp-free
	// message, so fleet workers and a single daemon emit identical bytes.
	if !task.job.deadline.IsZero() && !time.Now().Before(task.job.deadline) {
		m.cellsExpired.Add(1)
		task.job.complete(task.idx, ErrorCellLine(task.idx, hash, deadlineExceededMsg), true, castore.Computed)
		return
	}
	if err := task.job.ctx.Err(); err != nil {
		m.cellsCanceled.Add(1)
		task.job.complete(task.idx, ErrorCellLine(task.idx, hash, "canceled: "+err.Error()), true, castore.Computed)
		return
	}
	body, outcome, err := m.store.Do(task.job.ctx, hash, func(ctx context.Context) ([]byte, error) {
		sum, err := hdls.RunSummaryCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return marshalSummary(sum), nil
	})
	if err != nil {
		if !task.job.deadline.IsZero() && errors.Is(err, context.DeadlineExceeded) {
			// Mid-flight expiry: same frozen in-band line as the refusal
			// above, so where in the pipeline the deadline fired does not
			// change the bytes the client reads.
			m.cellsExpired.Add(1)
			task.job.complete(task.idx, ErrorCellLine(task.idx, hash, deadlineExceededMsg), true, outcome)
			return
		}
		if task.job.ctx.Err() != nil {
			m.cellsCanceled.Add(1)
		} else {
			// Submission validates every cell, so this is an internal
			// failure; report it in-band so the stream stays well-formed.
			m.cellErrors.Add(1)
		}
		task.job.complete(task.idx, ErrorCellLine(task.idx, hash, err.Error()), true, outcome)
		return
	}
	switch outcome {
	case castore.Computed:
		// The one caller that paid the engine cost.
	case castore.Collapsed:
		m.cellsCollapsed.Add(1)
	default: // HitMem, HitDisk, HitPeer
		m.cellsCached.Add(1)
	}
	task.job.complete(task.idx, CellLine(task.idx, hash, body), false, outcome)
}

// lineRoom is the room a cell line needs beyond its hash and payload: the
// fixed keys, the longest index, and the hash's quotes.
const lineRoom = len(`{"index":,"hash":"","summary":}`) + len("-9223372036854775808")

// appendLineHead appends the frozen head of a cell line,
// {"index":<idx>,"hash":<quoted hash>,"<field>":, to dst. The bytes equal
// fmt's %d and %q: strconv.AppendQuote is what %q runs on a string.
func appendLineHead(dst []byte, idx int, hash, field string) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(idx), 10)
	dst = append(dst, `,"hash":`...)
	dst = strconv.AppendQuote(dst, hash)
	dst = append(dst, `,"`...)
	dst = append(dst, field...)
	return append(dst, `":`...)
}

// CellLine composes the per-cell NDJSON line around the cached summary
// bytes, in one buffer sized up front. Index and hash are deterministic,
// so the line is a pure function of the cell config. The fleet
// coordinator (internal/fleet) rebuilds exactly these bytes around
// worker-streamed summaries, which is what makes a merged fleet response
// byte-identical to a single daemon's.
func CellLine(idx int, hash string, summaryJSON []byte) []byte {
	line := make([]byte, 0, lineRoom+len(hash)+len(summaryJSON))
	line = appendLineHead(line, idx, hash, "summary")
	line = append(line, summaryJSON...)
	return append(line, '}')
}

// ErrorCellLine composes the per-cell NDJSON error line — the failure
// counterpart of CellLine, same frozen layout discipline, the message
// quoted like fmt's %q.
func ErrorCellLine(idx int, hash, msg string) []byte {
	line := make([]byte, 0, lineRoom+len(hash)+len(msg))
	line = appendLineHead(line, idx, hash, "error")
	line = strconv.AppendQuote(line, msg)
	return append(line, '}')
}

// Drain stops accepting jobs, waits for every accepted cell to finish (or
// ctx to expire), then shuts the worker pool down. Idempotent in effect:
// later calls wait on the same state.
func (m *Manager) Drain(ctx context.Context) error {
	// Setting the flag under mu orders it against Submit's jobWG.Add: every
	// accepted job is either visible to the Wait below or rejected.
	m.mu.Lock()
	m.draining.Store(true)
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain aborted with %d jobs still active: %w",
			m.activeJobs.Load(), ctx.Err())
	}
	m.mu.Lock()
	if !m.queueClosed { // all cells consumed: jobWG is zero and Submit rejects
		close(m.queue)
		m.queueClosed = true
		close(m.janitorStop)
	}
	m.mu.Unlock()
	m.workerWG.Wait()
	return nil
}

// Draining reports whether Drain has been initiated.
func (m *Manager) Draining() bool { return m.draining.Load() }

// ManagerStats is the manager's operational counter snapshot for /metrics.
type ManagerStats struct {
	Jobs           int64 // jobs accepted over the process lifetime
	JobsEvicted    int64 // completed jobs dropped by TTL/count retention
	JobsRetained   int   // jobs currently addressable under /v1/jobs
	JobsShed       int64 // submissions rejected by admission control (429s)
	JobsRecovered  int64 // jobs replayed from the journal after a restart
	RecoveryFails  int64 // journal records that could not be replayed
	ActiveJobs     int64 // jobs with incomplete cells
	Cells          int64 // cells processed (cache hits included)
	CellsCached    int64 // cells served from a store tier (mem/disk/peer)
	CellsCollapsed int64 // cells that joined a concurrent identical flight
	CellsCanceled  int64 // cells skipped or aborted by client disconnect
	CellsExpired   int64 // cells refused or aborted past their deadline
	CellErrors     int64 // cells that failed after validation
	QueueDepth     int64 // cells queued but not yet started
}

// Stats reports lifetime job/cell counters and the live queue depth.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	retained := len(m.jobs)
	m.mu.Unlock()
	return ManagerStats{
		Jobs:           m.jobsTotal.Load(),
		JobsEvicted:    m.jobsEvicted.Load(),
		JobsRetained:   retained,
		JobsShed:       m.jobsShed.Load(),
		JobsRecovered:  m.jobsRecovered.Load(),
		RecoveryFails:  m.recoveryFails.Load(),
		ActiveJobs:     m.activeJobs.Load(),
		Cells:          m.cellsTotal.Load(),
		CellsCached:    m.cellsCached.Load(),
		CellsCollapsed: m.cellsCollapsed.Load(),
		CellsCanceled:  m.cellsCanceled.Load(),
		CellsExpired:   m.cellsExpired.Load(),
		CellErrors:     m.cellErrors.Load(),
		QueueDepth:     m.queueDepth.Load(),
	}
}
