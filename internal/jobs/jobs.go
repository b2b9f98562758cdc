// Package jobs is the job scheduler behind `graphsd serve`: a bounded
// worker pool with admission control in front of the engine. Requests are
// admitted against two budgets — queue depth and an aggregate memory
// estimate across queued and running jobs — then executed by a fixed number
// of workers, each job carrying a context so cancellation (client request,
// per-job timeout or deadline, server shutdown) stops the engine between
// sub-blocks.
//
// With a Journal configured the scheduler is durable: every submission is
// appended to the write-ahead log before it is acknowledged, every terminal
// state before it is reported, and a restarted scheduler replays the log —
// jobs that finished stay finished, jobs that never finished are re-queued,
// and jobs that were mid-run resume from their engine checkpoint (per-job
// directories under CheckpointRoot), producing results bit-identical to an
// uninterrupted run. Once the journal fails the scheduler sheds load
// (ErrUnavailable) instead of accepting work it cannot make durable.
//
// The scheduler is deliberately engine-agnostic: it runs any Runner, so its
// lifecycle, admission, recovery, and shutdown logic is testable without
// layouts.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/storage"
)

// State is a job's lifecycle state. Transitions are strictly
// Queued → Running → one of (Done, Failed, Cancelled, Expired), except that
// a queued job may go directly to Cancelled (drain, client cancel) or
// Expired (deadline passed before a worker picked it up).
type State int

const (
	Queued State = iota
	Running
	Done
	Failed
	Cancelled
	Expired
)

// String returns the lowercase state name used in the API and metrics.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// stateByName inverts String, for journal replay.
func stateByName(name string) (State, bool) {
	for s := Queued; s <= Expired; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Final reports whether s is a terminal state.
func (s State) Final() bool {
	return s == Done || s == Failed || s == Cancelled || s == Expired
}

// Request describes one job submission.
type Request struct {
	// Graph names a graph registered with the server.
	Graph string `json:"graph"`
	// Tenant is the submitting tenant ("" resolves to DefaultTenant). The
	// HTTP server sets it from the authenticated bearer token; it is
	// journaled with the submit record so fair-share accounting survives
	// restarts.
	Tenant string `json:"tenant,omitempty"`
	// Algorithm is an algorithms.ByName name (pr, bfs, cc, sssp, ...).
	Algorithm string `json:"algorithm"`
	// Source is the source vertex for traversal algorithms.
	Source uint32 `json:"source,omitempty"`
	// MaxIterations overrides the algorithm's iteration bound when positive.
	MaxIterations int `json:"max_iterations,omitempty"`
	// TimeoutMS cancels the job this many milliseconds after it starts
	// running. Zero selects the scheduler's DefaultTimeout (if any).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Deadline, when set, is the absolute wall-clock instant past which the
	// job is worthless: a queued job past it is expired instead of run, and
	// a running job's context is cancelled at it. Unlike TimeoutMS it
	// survives restarts — a recovered job past its journaled deadline is
	// expired at replay, not re-run.
	Deadline *time.Time `json:"deadline,omitempty"`
}

// deadlinePassed reports whether the request's deadline exists and is past.
func (r Request) deadlinePassed(now time.Time) bool {
	return r.Deadline != nil && now.After(*r.Deadline)
}

// RunInfo carries the per-job execution context a Runner needs beyond the
// request itself: identity, attempt number, checkpoint wiring, and the
// progress callback.
type RunInfo struct {
	// ID is the job's identifier and Attempt the 1-based execution attempt
	// (>1 after transient-failure retries).
	ID      string
	Attempt int
	// CheckpointDir is the job's private checkpoint directory ("" when
	// checkpointing is disabled) and CheckpointEvery the iteration interval
	// to checkpoint at. Resume asks the runner to restore any checkpoint
	// found there — always true under a CheckpointRoot, because a fresh
	// job's directory is empty and a recovered or retried job's holds
	// exactly the state to resume from.
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	// OnIteration is invoked after each engine iteration for progress
	// reporting; implementations must pass it through to
	// core.Options.OnIteration (or call it themselves).
	OnIteration func(core.IterStat)
}

// Runner executes one admitted job.
type Runner func(ctx context.Context, req Request, info RunInfo) (*core.Result, error)

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of jobs executed concurrently. Minimum 1.
	Workers int
	// QueueDepth bounds the jobs admitted but not yet running. Minimum 1.
	// Recovered jobs re-queued at startup do not count against it.
	QueueDepth int
	// MemBudget, when positive, bounds the summed memory estimates of
	// queued and running jobs; submissions beyond it are rejected with
	// ErrMemBudget.
	MemBudget int64
	// EstimateBytes predicts a job's peak engine memory, consulted at
	// admission when MemBudget is set. Nil estimates zero.
	EstimateBytes func(Request) int64
	// Run executes one job. Required.
	Run Runner
	// Tenants configures multi-tenant admission: per-tenant quotas and
	// weighted fair-share dequeue. With tenants configured, submissions
	// naming an unknown tenant are rejected with ErrUnknownTenant. Empty
	// runs everything under DefaultTenant with no quotas (single-tenant
	// behaviour).
	Tenants []Tenant
	// RetainJobs, when positive, bounds the terminal (done/failed/
	// cancelled/expired) jobs kept in memory: once exceeded, the
	// oldest-finished jobs — and their full result payloads — are evicted.
	// Eviction is journal-consistent: a restarted scheduler replays every
	// journaled job and then applies the same policy, so the retained set
	// matches what an uninterrupted server would hold. Zero retains
	// everything (the pre-retention behaviour, which leaks on a
	// long-running server).
	RetainJobs int
	// Journal, when non-nil, makes the scheduler durable: submissions and
	// terminal states are journaled before acknowledgement, and New replays
	// the journal's recovered records (re-queueing unfinished jobs) before
	// the workers start.
	Journal *Journal
	// Retries re-runs a job up to this many extra attempts when it fails
	// with a transient storage error (storage.IsTransient). Permanent
	// failures and cancellations are never retried.
	Retries int
	// RetryBackoff is the pause before the first job-level retry, doubled
	// per attempt and capped at 32x. Zero selects 10ms.
	RetryBackoff time.Duration
	// DefaultTimeout bounds a job's running time when the request carries
	// no TimeoutMS of its own. Zero means no server-side timeout.
	DefaultTimeout time.Duration
	// CheckpointRoot, when set, gives every job a private checkpoint
	// directory <root>/<jobID> wired through RunInfo, and the scheduler
	// prunes it once the job's terminal record is durably journaled.
	CheckpointRoot string
	// CheckpointEvery is the iteration interval passed to runners; zero
	// with a CheckpointRoot selects 1 (checkpoint every iteration).
	CheckpointEvery int
	// CheckpointKeep retains the checkpoint directories of the last N
	// terminal jobs for debugging instead of pruning them immediately.
	CheckpointKeep int
}

// Admission errors. The server maps ErrQueueFull and ErrMemBudget to HTTP
// 429; ErrClosed and ErrUnavailable to 503 with a Retry-After.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrMemBudget = errors.New("jobs: memory budget exhausted")
	ErrClosed    = errors.New("jobs: scheduler shut down")
	// ErrUnavailable rejects submissions the scheduler cannot make durable
	// (journal failed or draining); clients should retry against a healthy
	// replica or after the restart.
	ErrUnavailable = errors.New("jobs: not accepting jobs (journal unavailable)")
)

// Tenant admission errors; both map to HTTP 4xx in the server.
var (
	// ErrTenantQueueFull rejects a submission past the tenant's MaxQueued
	// quota (HTTP 429) while other tenants still admit fine.
	ErrTenantQueueFull = errors.New("jobs: tenant queue quota exhausted")
	// ErrUnknownTenant rejects a submission naming a tenant the scheduler
	// was not configured with (only when Config.Tenants is non-empty).
	ErrUnknownTenant = errors.New("jobs: unknown tenant")
)

// ErrNotFound reports an unknown job ID — including a terminal job already
// evicted by the retention policy.
var ErrNotFound = errors.New("jobs: no such job")

// ErrDeadlineExpired is the terminal error of a job that ran out of
// wall-clock deadline (Request.Deadline), distinct from a client cancel.
var ErrDeadlineExpired = errors.New("jobs: deadline expired")

// Job is one submitted request and its lifecycle. All fields are guarded by
// mu; read them through Status.
type Job struct {
	id  string
	req Request

	mu         sync.Mutex
	state      State
	err        error
	res        *core.Result
	iterations int
	activeVert int
	attempt    int
	submitted  time.Time
	started    time.Time
	finished   time.Time
	estBytes   int64
	recovered  bool // reconstructed from the journal at startup
	wasRunning bool // recovered job that had started before the crash

	ctx    context.Context
	cancel context.CancelFunc
}

// ID returns the job's deterministic identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submission that created the job.
func (j *Job) Request() Request { return j.req }

// Recovered reports whether the job was reconstructed from the journal by a
// restarted scheduler.
func (j *Job) Recovered() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// Status is a point-in-time JSON-ready view of a job.
type Status struct {
	ID        string `json:"id"`
	Graph     string `json:"graph"`
	Tenant    string `json:"tenant,omitempty"`
	Algorithm string `json:"algorithm"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	// Iterations completed so far (live while running) and the active
	// vertex count entering the most recent iteration.
	Iterations int `json:"iterations"`
	ActiveVert int `json:"active_vertices,omitempty"`
	// Converged is meaningful once State is "done".
	Converged bool `json:"converged,omitempty"`
	// Attempt is the execution attempt count (>1 after retries); Recovered
	// marks a job replayed from the journal after a restart.
	Attempt   int  `json:"attempt,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// Resumed reports that the run restored an engine checkpoint instead of
	// recomputing from iteration zero.
	Resumed bool `json:"resumed,omitempty"`
	// EstBytes is the admission-time memory estimate.
	EstBytes  int64  `json:"est_bytes,omitempty"`
	Submitted string `json:"submitted"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	Deadline  string `json:"deadline,omitempty"`
	// WaitMS/RunMS are queue latency and execution wall time.
	WaitMS int64 `json:"wait_ms"`
	RunMS  int64 `json:"run_ms,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		Graph:      j.req.Graph,
		Tenant:     j.req.Tenant,
		Algorithm:  j.req.Algorithm,
		State:      j.state.String(),
		Iterations: j.iterations,
		ActiveVert: j.activeVert,
		Attempt:    j.attempt,
		Recovered:  j.recovered,
		EstBytes:   j.estBytes,
		Submitted:  j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.req.Deadline != nil {
		st.Deadline = j.req.Deadline.UTC().Format(time.RFC3339Nano)
	}
	if j.res != nil {
		st.Converged = j.res.Converged
		st.Iterations = j.res.Iterations
		st.Resumed = j.res.Resumed
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
		st.WaitMS = j.started.Sub(j.submitted).Milliseconds()
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = end.Sub(j.started).Milliseconds()
	} else {
		st.WaitMS = time.Since(j.submitted).Milliseconds()
		if !j.finished.IsZero() { // cancelled or expired while queued
			st.WaitMS = j.finished.Sub(j.submitted).Milliseconds()
			st.RunMS = 0
		}
	}
	return st
}

// Result returns the completed run's result, or nil while the job is not
// Done — including a job that finished before a restart: the journal
// records outcomes, not result payloads, so a recovered Done job's values
// are gone.
func (j *Job) Result() *core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil
	}
	return j.res
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Scheduler is the bounded worker pool. Create with New, submit with
// Submit, stop with Close.
type Scheduler struct {
	cfg   Config
	depth int // global admission bound on queued jobs

	mu      sync.Mutex
	cond    *sync.Cond // workers wait here for runnable jobs
	tenants map[string]*tenantState
	tnames  []string // sorted tenant names, for deterministic dequeue
	// queuedLen is the total jobs sitting in tenant FIFOs; basePass is the
	// stride scheduler's global virtual time (see tenants.go).
	queuedLen int
	basePass  float64
	strict    bool // Config.Tenants was non-empty: unknown tenants rejected

	jobs     map[string]*Job
	order    []string // submission order, for listing
	terminal []string // terminal order, for retention eviction
	evicted  int64    // terminal jobs evicted by the retention policy
	seq      int64
	memUsed  int64
	closed   bool
	killed   bool               // abandoned by Kill: workers stop without journaling
	finished [Expired + 1]int64 // terminal-state counts, monotonic
	retried  int64              // job-level retry attempts
	expired  int64              // jobs expired past their deadline
	keptCk   []string           // terminal jobs whose checkpoint dirs are retained
	recovery RecoveryStats

	wg sync.WaitGroup
}

// New starts a scheduler with cfg.Workers workers. With cfg.Journal set it
// first replays the journal's recovered records: terminal jobs are restored
// for listing, unfinished jobs are re-queued (ahead of any new submission)
// and will resume from their checkpoints.
func New(cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	if cfg.Run == nil {
		panic("jobs: Config.Run is required")
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.CheckpointRoot != "" && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	s := &Scheduler{
		cfg:     cfg,
		depth:   cfg.QueueDepth,
		tenants: make(map[string]*tenantState),
		strict:  len(cfg.Tenants) > 0,
		jobs:    make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, tc := range cfg.Tenants {
		t := s.tenantLocked(tc.Name) // pre-workers: no locking needed yet
		t.cfg = tc
	}
	var requeue []*Job
	if cfg.Journal != nil {
		requeue = s.replay(cfg.Journal.ConsumeReplay())
	}
	// Recovered jobs re-enter their tenants' queues ahead of new
	// submissions, bypassing admission quotas: they were admitted once.
	for _, j := range requeue {
		t := s.tenantLocked(j.req.Tenant)
		s.enqueueLocked(t, j)
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit admits req, returning the queued job or an admission error
// (ErrQueueFull, ErrTenantQueueFull, ErrUnknownTenant, ErrMemBudget,
// ErrClosed, ErrUnavailable). With a journal configured the submission is
// durable before Submit returns. Job IDs are deterministic in the
// submission sequence: j<seq>-<fnv32a of tenant|graph|algorithm|params>, so
// equal request streams produce equal IDs across server runs — and across
// restarts, because the replayed journal re-seeds the sequence.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	est := int64(0)
	if s.cfg.EstimateBytes != nil {
		est = s.cfg.EstimateBytes(req)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.cfg.Journal != nil && s.cfg.Journal.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, s.cfg.Journal.Err())
	}
	name := req.Tenant
	if name == "" {
		name = DefaultTenant
	}
	if s.strict && s.tenants[name] == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	t := s.tenantLocked(name)
	if t.cfg.MaxQueued > 0 && t.queued >= t.cfg.MaxQueued {
		return nil, fmt.Errorf("%w: tenant %q has %d queued (quota %d)",
			ErrTenantQueueFull, name, t.queued, t.cfg.MaxQueued)
	}
	if s.cfg.MemBudget > 0 && s.memUsed+est > s.cfg.MemBudget {
		return nil, fmt.Errorf("%w: %d bytes reserved, job needs %d, budget %d",
			ErrMemBudget, s.memUsed, est, s.cfg.MemBudget)
	}
	if s.queuedLen >= s.depth {
		return nil, fmt.Errorf("%w: depth %d", ErrQueueFull, s.depth)
	}
	seq := s.seq + 1
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:        jobID(seq, req),
		req:       req,
		state:     Queued,
		submitted: time.Now(),
		estBytes:  est,
		ctx:       ctx,
		cancel:    cancel,
	}
	// Durability precedes visibility: the submit record must be on disk
	// before a worker can run the job or the client learns its ID. The
	// fsync happens under s.mu, which also serialises journal order with
	// submission order.
	if s.cfg.Journal != nil {
		rec := Record{Type: RecSubmit, ID: j.id, Time: j.submitted, Seq: seq, Req: &req}
		if err := s.cfg.Journal.Append(rec); err != nil {
			cancel()
			return nil, err
		}
	}
	s.seq = seq
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.memUsed += est
	s.enqueueLocked(t, j)
	s.cond.Signal()
	return j, nil
}

// jobID derives the deterministic job identifier.
func jobID(seq int64, req Request) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d", req.Tenant, req.Graph, req.Algorithm, req.Source, req.MaxIterations)
	return fmt.Sprintf("j%05d-%08x", seq, h.Sum32())
}

// Get returns the job with the given ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all retained jobs in submission order. Terminal jobs beyond
// the retention bound have been evicted and are absent.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobsLocked()
}

func (s *Scheduler) jobsLocked() []*Job {
	live := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok { // absent: evicted by retention
			live = append(live, j)
		}
	}
	return live
}

// Cancel requests cancellation of the job: a queued job is marked cancelled
// and skipped by the workers; a running job's context aborts the engine at
// the next sub-block boundary. Cancelling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return ErrNotFound
	}
	if !s.finish(j, Queued, Cancelled, context.Canceled, nil) {
		j.cancel() // running: engine observes ctx; finished: no-op
	}
	return nil
}

// Snapshot is the scheduler's counters and gauges at one instant: every
// field was read under one acquisition of the scheduler's lock, so sums and
// ratios across them (Σ Tenants[i].Queued == QueueLen) hold exactly.
type Snapshot struct {
	// Current counts retained jobs by present state; Finished is the
	// monotonic count per terminal state since the scheduler started,
	// including terminal jobs recovered from the journal. Both index by State.
	Current, Finished [Expired + 1]int64
	// Retried counts job-level retry attempts after transient failures;
	// ExpiredDeadline jobs expired past their deadline, at replay or runtime.
	Retried, ExpiredDeadline int64
	// Retained is the jobs held in memory, Evicted the terminal jobs the
	// retention policy dropped.
	Retained int
	Evicted  int64
	// QueueLen of QueueCap admitted jobs are waiting for a worker. A job
	// cancelled while queued leaves Current[Queued] at once but QueueLen
	// only when a worker pops it.
	QueueLen, QueueCap int
	// MemUsed is the summed memory estimates of queued and running jobs,
	// MemBudget the admission bound (0 = unlimited).
	MemUsed, MemBudget int64
	// Recovery is what the startup journal replay did; the zero value
	// without a journal.
	Recovery RecoveryStats
	// Tenants lists every tenant seen (configured or auto-created), by name.
	Tenants []TenantSnapshot
}

// Snapshot reads the scheduler's state under one lock acquisition.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Finished: s.finished, Retried: s.retried, ExpiredDeadline: s.expired,
		Retained: len(s.jobs), Evicted: s.evicted,
		QueueLen: s.queuedLen, QueueCap: s.depth,
		MemUsed: s.memUsed, MemBudget: s.cfg.MemBudget,
		Recovery: s.recovery, Tenants: s.tenantsLocked(),
	}
	for _, j := range s.jobs {
		snap.Current[j.State()]++
	}
	return snap
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		// Closed: nothing starts. Under Kill nothing is journaled either (crash
		// simulation); under Close a job still Queued here was dequeued while
		// the drain was on its way to it, and the drain finishes it in order.
		if !closed {
			s.runJob(j)
		}
		s.mu.Lock()
		s.tenantLocked(j.req.Tenant).running--
		s.cond.Signal() // a running slot freed: a quota-blocked tenant may now go
		s.mu.Unlock()
	}
}

// next blocks until a job is runnable under the fair-share policy and
// returns it, or returns nil when the scheduler is shut down and (for a
// graceful Close) the queues have drained. The returned job may have been
// cancelled while queued; runJob detects that and skips it.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed && (s.killed || s.queuedLen == 0) {
			return nil
		}
		if j := s.nextLocked(); j != nil {
			return j
		}
		s.cond.Wait()
	}
}

func (s *Scheduler) runJob(j *Job) {
	now := time.Now()
	if j.req.deadlinePassed(now) {
		s.finish(j, Queued, Expired, ErrDeadlineExpired, nil)
		return
	}
	j.mu.Lock()
	if j.state != Queued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = now
	j.attempt++
	attempt := j.attempt
	j.mu.Unlock()

	ctx := j.ctx
	var cancels []context.CancelFunc
	timeout := time.Duration(j.req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var c context.CancelFunc
		ctx, c = context.WithTimeout(ctx, timeout)
		cancels = append(cancels, c)
	}
	if j.req.Deadline != nil {
		var c context.CancelFunc
		ctx, c = context.WithDeadline(ctx, *j.req.Deadline)
		cancels = append(cancels, c)
	}

	res, err := s.runAttempts(ctx, j, attempt)

	for _, c := range cancels {
		c()
	}

	final := Done
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) && j.req.deadlinePassed(time.Now()):
		final = Expired
		err = fmt.Errorf("%w: %v", ErrDeadlineExpired, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		final = Cancelled
	default:
		final = Failed
	}
	s.finish(j, Running, final, err, res)
}

// runAttempts executes the job, retrying transient storage failures up to
// cfg.Retries extra attempts under doubling backoff. Each attempt journals
// a start record; retried attempts resume from the job's checkpoint, so the
// iterations a failed attempt completed are never recomputed.
func (s *Scheduler) runAttempts(ctx context.Context, j *Job, attempt int) (*core.Result, error) {
	info := RunInfo{
		ID:              j.id,
		CheckpointEvery: s.cfg.CheckpointEvery,
		OnIteration: func(st core.IterStat) {
			j.mu.Lock()
			j.iterations = st.Index + 1
			j.activeVert = st.Active
			j.mu.Unlock()
			s.journalProgress(j.id, st.Index+1)
		},
	}
	if s.cfg.CheckpointRoot != "" {
		info.CheckpointDir = s.checkpointDir(j.id)
		info.Resume = true
	}
	backoff := s.cfg.RetryBackoff
	for {
		info.Attempt = attempt
		s.journalStart(j.id, attempt)
		res, err := s.cfg.Run(ctx, j.req, info)
		if err == nil || ctx.Err() != nil || !storage.IsTransient(err) {
			return res, err
		}
		s.mu.Lock()
		exhausted := attempt > s.cfg.Retries
		if !exhausted {
			s.retried++
		}
		s.mu.Unlock()
		if exhausted {
			return res, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 32*s.cfg.RetryBackoff {
			backoff *= 2
		}
		attempt++
		j.mu.Lock()
		j.attempt = attempt
		j.mu.Unlock()
	}
}

func (s *Scheduler) journalStart(id string, attempt int) {
	if s.cfg.Journal == nil {
		return
	}
	s.cfg.Journal.Append(Record{Type: RecStart, ID: id, Time: time.Now(), Attempt: attempt})
}

func (s *Scheduler) journalProgress(id string, iter int) {
	if s.cfg.Journal == nil {
		return
	}
	s.cfg.Journal.Append(Record{Type: RecProgress, ID: id, Time: time.Now(), Iter: iter})
}

// Close stops admission, deterministically cancels every still-queued job
// (journaling each, in submission order, before any worker can race the
// drain), then cancels running jobs' contexts (a cancelled engine stops at
// the next sub-block, so shutdown is prompt), and waits for the workers. It
// returns ctx.Err() if the workers outlive ctx.
func (s *Scheduler) Close(ctx context.Context) error { return s.shutdown(ctx, false) }

// Kill abandons the scheduler the way SIGKILL would: job contexts are
// cancelled so the engine aborts mid-run, but nothing further is journaled
// and no checkpoint is pruned — the on-disk state freezes exactly as a
// crash would leave it. Restart tests reopen the journal afterwards and
// assert full recovery. It waits for the workers within ctx's deadline.
func (s *Scheduler) Kill(ctx context.Context) error { return s.shutdown(ctx, true) }

// shutdown is Close, or with kill set Kill: they differ in whether the queued
// jobs are journaled as cancelled first.
func (s *Scheduler) shutdown(ctx context.Context, kill bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed, s.killed = true, kill
	jobs := s.jobsLocked()
	s.mu.Unlock()

	// First pass, in submission order: flip every still-Queued job to
	// Cancelled under its own lock and journal it. No running job is touched
	// yet — cancelling one frees its worker, which could dequeue and start a
	// later queued job before this loop reached it. A worker that dequeues
	// one of these afterwards sees state != Queued and skips it.
	if !kill {
		for _, j := range jobs {
			s.finish(j, Queued, Cancelled, ErrClosed, nil)
		}
	}
	// Second pass: every queued job is terminal and journaled (or, killed, left
	// as it was), so now stop the running ones promptly (terminal jobs: no-op).
	for _, j := range jobs {
		j.cancel()
	}
	// The cancelled jobs still sit in their tenants' FIFOs; woken workers
	// pop and skip them until the queues drain, then exit.
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
