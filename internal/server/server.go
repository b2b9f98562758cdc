// Package server implements `graphsd serve`: a resident job server that
// keeps preprocessed layouts open across requests and exposes an HTTP API
// for submitting algorithm runs. Jobs on the same graph share one
// concurrency-safe sub-block cache (buffer.Shared), so a warm job loads
// strictly fewer sub-blocks from the device than a cold one, and one
// storage.Device per graph, so /metrics reports exact per-graph traffic.
//
// API (JSON unless noted):
//
//	POST   /v1/jobs              submit {graph, algorithm, source?, max_iterations?, timeout_ms?} → 202 status
//	GET    /v1/jobs              list job statuses in submission order, paginated (?offset, ?limit; default limit 100)
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/result  top-k (?top=N) or full (?full=1, streamed; ?offset/&limit paginate) vertex values; 409 until done
//	POST   /v1/jobs/{id}/cancel  request cancellation (also DELETE /v1/jobs/{id})
//	POST   /v1/graphs/{g}/edges  apply {mutations: [{op, src, dst, weight?}]} to a mutable graph
//	POST   /v1/graphs/{g}/compact fold sealed delta layers into the base grid now
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text exposition
//
// With Config.Tenants set, every /v1 endpoint requires `Authorization:
// Bearer <token>`; jobs are scoped to the submitting tenant, the scheduler
// shares workers by tenant weight, and per-tenant quotas map to 429
// (queue, mutation rate) or 401/403 (bad token, impersonation).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// GraphConfig registers one preprocessed layout with the server.
type GraphConfig struct {
	// Name is the identifier clients use in job requests.
	Name string
	// Dir is the layout directory (output of `graphsd preprocess`).
	Dir string
	// Profile is the simulated disk model for the graph's device.
	Profile storage.Profile
	// CacheBytes sizes the graph's shared sub-block cache. Zero selects
	// half the decoded edge data, mirroring an engine's default buffer.
	CacheBytes int64
	// Retries, when positive, retries transient read faults on the
	// graph's device under exponential backoff.
	Retries int
	// SEM is ignored. It used to put every job's per-run buffer in the
	// compressed tier; that tier is now what the buffer is on a delta-coded
	// layout, and dead sub-blocks are skipped on every layout. The field stays
	// until the benchmark module, which sets it, is next edited.
	SEM bool
	// Compressed stores the shared sub-block cache delta-coded, trading a
	// per-hit decode for roughly double the effective capacity.
	Compressed bool
	// Async runs jobs whose program is label-correcting (cc, sssp, bfs)
	// through the asynchronous priority scheduler; other programs fall back
	// to BSP.
	Async bool
	// Mutable opens the graph through the delta store: POST
	// /v1/graphs/{name}/edges accepts mutations, jobs pin a snapshot at
	// submission, and a background compactor folds delta layers into the
	// base grid. MemtableBytes caps the in-memory write buffer before a
	// seal (0: delta.Options default); CompactThreshold is the sealed-layer
	// count that triggers compaction (0: default).
	Mutable          bool
	MemtableBytes    int64
	CompactThreshold int
}

// Config sizes the server.
type Config struct {
	// Graphs are the layouts served. At least one is required.
	Graphs []GraphConfig
	// Workers, QueueDepth, and MemBudget configure the job scheduler; see
	// jobs.Config. Workers and QueueDepth default to 2 and 16.
	Workers    int
	QueueDepth int
	MemBudget  int64
	// JournalDir, when set, makes the server durable: job lifecycle records
	// are written to a WAL under <dir>/wal before they are acknowledged,
	// per-job engine checkpoints live under <dir>/checkpoints, and a
	// restarted server replays the journal — finished jobs stay finished,
	// unfinished jobs are re-queued and resume from their checkpoints with
	// results bit-identical to an uninterrupted run. Empty keeps the
	// pre-durability behaviour (jobs die with the process).
	JournalDir string
	// JournalSegmentBytes is the WAL rotation threshold (0: 1 MiB).
	JournalSegmentBytes int64
	// CheckpointEvery is the per-job engine checkpoint interval in
	// iterations (0 with a journal: every iteration); CheckpointKeep
	// retains the last N terminal jobs' checkpoint directories for
	// debugging instead of pruning them at job completion.
	CheckpointEvery int
	CheckpointKeep  int
	// JobRetries re-runs a job up to N extra attempts when it fails with a
	// transient storage error; JobTimeout bounds any job's running time
	// when the request carries no timeout of its own.
	JobRetries int
	JobTimeout time.Duration
	// Tenants, when non-empty, turns on multi-tenant serving: every /v1
	// request must carry one of the configured bearer tokens, jobs are
	// visible only to the tenant that submitted them, the scheduler
	// dequeues by weighted fair share, and per-tenant quotas (queue,
	// concurrency, mutation bytes/sec) apply. See LoadTenantsFile.
	Tenants []jobs.Tenant
	// RetainJobs bounds how many terminal (done/failed/cancelled/expired)
	// jobs the scheduler keeps retrievable; beyond it the oldest-finished
	// are evicted, result payloads and all. 0 keeps everything — only
	// sensible for short-lived test servers.
	RetainJobs int
}

// graphEntry is one registered graph: its device, layout, shared cache, and
// the per-graph aggregates folded in as jobs on it complete.
type graphEntry struct {
	name   string
	dev    *storage.Device
	layout *partition.Layout // nil for mutable graphs: jobs pin a snapshot instead
	store  *delta.Store      // non-nil iff the graph is mutable
	// meta is the sizing snapshot taken at open (vertex count, edge
	// bytes), used for cache sizing. Mutable graphs drift from it as
	// mutations and compactions land — anything that sizes or validates a
	// new request must go through manifest(), not meta.
	meta   partition.Manifest
	shared *buffer.Shared
	async  bool

	mu  sync.Mutex
	agg aggregates
}

// aggregates is what completed jobs on a graph fold into /metrics.
type aggregates struct {
	jobsRun  int64 // completed (Done) jobs folded in
	buffer   buffer.Stats
	pipeline pipeline.Stats
	// Async aggregates across completed async runs: runs, scheduler steps,
	// their own-interval rounds, sub-blocks scheduled, and frontier
	// reactivations.
	asyncRuns   int64
	asyncSteps  int64
	asyncRounds int64
	asyncBlocks int64
	asyncReacts int64
	// Scheduler calibration accuracy, summed/held across completed runs:
	// observed iterations, summed mean-mispredict weighted by observations
	// (for a cross-run mean), the worst ratio seen, and the most recent
	// run's final correction factors.
	schedObserved     int64
	schedMispredict   float64 // Σ run.MeanMispredict · run.Observed
	schedMaxMispred   float64
	schedCorrFull     float64
	schedCorrOnDemand float64
}

// manifest returns the graph's current sizing manifest. Immutable graphs
// return the open-time snapshot; mutable graphs read the store's live
// snapshot, because EdgeBytesTotal (and with it admission estimates and
// buffer sizing inputs) drifts as ingest and compaction land. Using the
// stale open-time meta here was a bug: after heavy ingest, admission
// control under-estimated job memory against the grown edge volume.
func (g *graphEntry) manifest() partition.Manifest {
	if g.store != nil {
		v := g.store.Snapshot()
		m := *v.Meta()
		v.Release()
		return m
	}
	return g.meta
}

// meanMispredict is the observation-weighted mean misprediction ratio across
// the folded runs.
func (a aggregates) meanMispredict() float64 {
	if a.schedObserved == 0 {
		return 0
	}
	return a.schedMispredict / float64(a.schedObserved)
}

// folded returns what fold has accumulated, as of one instant.
func (g *graphEntry) folded() aggregates {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.agg
}

// fold accumulates a completed run's per-job stats into the graph's
// aggregates for /metrics.
func (g *graphEntry) fold(res *core.Result) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := &g.agg
	a.jobsRun++
	a.buffer = a.buffer.Add(res.Buffer)
	a.pipeline = a.pipeline.Add(res.Pipeline)
	if res.Async.Enabled {
		a.asyncRuns++
		a.asyncSteps += int64(res.Async.Steps)
		a.asyncRounds += res.Async.Rounds
		a.asyncBlocks += res.Async.BlocksScheduled
		a.asyncReacts += res.Async.Reactivations
	}
	if acc := res.SchedAccuracy; acc.Observed > 0 {
		a.schedObserved += int64(acc.Observed)
		a.schedMispredict += acc.MeanMispredict * float64(acc.Observed)
		if acc.MaxMispredict > a.schedMaxMispred {
			a.schedMaxMispred = acc.MaxMispredict
		}
		a.schedCorrFull = acc.CorrFull
		a.schedCorrOnDemand = acc.CorrOnDemand
	}
}

// Server is the resident job server. Create with New, serve its Handler,
// and stop with Close.
type Server struct {
	graphs  map[string]*graphEntry
	names   []string // sorted, for deterministic /metrics output
	sched   *jobs.Scheduler
	journal *jobs.Journal // nil without Config.JournalDir
	ckRoot  string        // the jobs' checkpoint root; empty without a journal
	mux     *http.ServeMux
	handler http.Handler // mux, behind auth when tenants are configured
	start   time.Time

	// Multi-tenant auth state, fixed at New: token → tenant name, and one
	// mutation-rate bucket per metered tenant. authOn iff Config.Tenants
	// was non-empty.
	authOn  bool
	tokens  map[string]string
	buckets map[string]*rateBucket

	// Background compactor for mutable graphs; stopCompact is closed once,
	// by whichever of Close/Kill runs first.
	compactWG   sync.WaitGroup
	stopCompact chan struct{}
	stopOnce    sync.Once
}

// New opens every configured graph and starts the job scheduler.
func New(cfg Config) (*Server, error) {
	if len(cfg.Graphs) == 0 {
		return nil, errors.New("server: no graphs configured")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	s := &Server{
		graphs:      make(map[string]*graphEntry, len(cfg.Graphs)),
		start:       time.Now(),
		stopCompact: make(chan struct{}),
	}
	for _, gc := range cfg.Graphs {
		if gc.Name == "" {
			return nil, errors.New("server: graph with empty name")
		}
		if _, dup := s.graphs[gc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate graph name %q", gc.Name)
		}
		dev, err := storage.OpenDevice(gc.Dir, gc.Profile)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %w", gc.Name, err)
		}
		var store *delta.Store
		var l *partition.Layout
		if gc.Mutable {
			// The delta store replays the mutation WAL and sweeps crash
			// leftovers before the graph serves its first job.
			store, err = delta.Open(dev, delta.Options{
				MemtableBytes: gc.MemtableBytes,
				CompactLayers: gc.CompactThreshold,
			})
			if err != nil {
				return nil, fmt.Errorf("server: graph %q: %w", gc.Name, err)
			}
		} else {
			l, err = partition.Load(dev)
			if err != nil {
				return nil, fmt.Errorf("server: graph %q: %w", gc.Name, err)
			}
			if l.Meta.System != "graphsd" {
				return nil, fmt.Errorf("server: graph %q: layout system %q not servable (need graphsd)", gc.Name, l.Meta.System)
			}
		}
		if gc.Retries > 0 {
			pol := storage.DefaultRetryPolicy
			pol.MaxRetries = gc.Retries
			dev.SetRetryPolicy(pol)
		}
		var meta partition.Manifest
		if store != nil {
			v := store.Snapshot()
			meta = *v.Meta()
			v.Release()
		} else {
			meta = l.Meta
		}
		cache := gc.CacheBytes
		if cache <= 0 {
			cache = meta.EdgeBytesTotal() / 2
		}
		newShared := buffer.NewShared
		if gc.Compressed {
			newShared = buffer.NewSharedCompressed
		}
		s.graphs[gc.Name] = &graphEntry{
			name:   gc.Name,
			dev:    dev,
			layout: l,
			store:  store,
			meta:   meta,
			shared: newShared(cache),
			async:  gc.Async,
		}
		s.names = append(s.names, gc.Name)
	}
	sort.Strings(s.names)
	if len(cfg.Tenants) > 0 {
		if err := ValidateTenants(cfg.Tenants); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.authOn = true
		s.tokens = make(map[string]string, len(cfg.Tenants))
		s.buckets = make(map[string]*rateBucket, len(cfg.Tenants))
		for _, t := range cfg.Tenants {
			s.tokens[t.Token] = t.Name
			if t.MutationBytesPerSec > 0 {
				s.buckets[t.Name] = newRateBucket(t.MutationBytesPerSec)
			}
		}
	}
	jcfg := jobs.Config{
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		MemBudget:      cfg.MemBudget,
		EstimateBytes:  s.estimateBytes,
		Run:            s.runJob,
		Retries:        cfg.JobRetries,
		DefaultTimeout: cfg.JobTimeout,
		Tenants:        cfg.Tenants,
		RetainJobs:     cfg.RetainJobs,
	}
	if cfg.JournalDir != "" {
		jr, err := jobs.OpenJournal(filepath.Join(cfg.JournalDir, "wal"), cfg.JournalSegmentBytes)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.journal = jr
		s.ckRoot = filepath.Join(cfg.JournalDir, "checkpoints")
		jcfg.Journal = jr
		jcfg.CheckpointRoot = s.ckRoot
		jcfg.CheckpointEvery = cfg.CheckpointEvery
		jcfg.CheckpointKeep = cfg.CheckpointKeep
	}
	s.sched = jobs.New(jcfg)
	s.mux = http.NewServeMux()
	s.routes()
	s.handler = http.Handler(s.mux)
	if s.authOn {
		s.handler = s.withAuth(s.mux)
	}
	for _, g := range s.graphs {
		if g.store != nil {
			s.compactWG.Add(1)
			go s.compactLoop(g)
		}
	}
	return s, nil
}

// compactLoop folds sealed delta layers into the base grid whenever the
// store crosses its compaction threshold. Compaction never blocks writers
// or pinned readers (snapshots keep the retired generation alive until
// released), so a coarse poll is enough.
func (s *Server) compactLoop(g *graphEntry) {
	defer s.compactWG.Done()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCompact:
			return
		case <-tick.C:
			if g.store.NeedsCompaction() {
				// Failures (a crashed device, a fault window) leave the old
				// generation serving; the next tick retries.
				g.store.Compact()
			}
		}
	}
}

// Journal returns the server's job journal, nil when durability is off.
func (s *Server) Journal() *jobs.Journal { return s.journal }

// Recovery reports what the startup journal replay did.
func (s *Server) Recovery() jobs.RecoveryStats { return s.sched.Snapshot().Recovery }

// Handler returns the server's HTTP handler (wrapped in bearer-token
// auth when tenants are configured).
func (s *Server) Handler() http.Handler { return s.handler }

// Scheduler exposes the job scheduler, for tests and the CLI.
func (s *Server) Scheduler() *jobs.Scheduler { return s.sched }

// Graph returns a registered graph's shared cache and device, for tests.
func (s *Server) Graph(name string) (*buffer.Shared, *storage.Device, bool) {
	g, ok := s.graphs[name]
	if !ok {
		return nil, nil, false
	}
	return g.shared, g.dev, true
}

// Store returns a mutable graph's delta store, nil for read-only graphs or
// unknown names. For tests and the CLI.
func (s *Server) Store(name string) *delta.Store {
	if g, ok := s.graphs[name]; ok {
		return g.store
	}
	return nil
}

// Close drains the scheduler (cancelling running jobs, waiting for the
// workers within ctx's deadline) and seals the journal. During the drain
// new submissions are rejected with 503 + Retry-After.
func (s *Server) Close(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopCompact) })
	s.compactWG.Wait()
	err := s.sched.Close(ctx)
	if s.journal != nil {
		if jerr := s.journal.Close(); err == nil {
			err = jerr
		}
	}
	for _, g := range s.graphs {
		if g.store != nil {
			if serr := g.store.Close(); err == nil {
				err = serr
			}
		}
	}
	return err
}

// Kill abandons the server the way SIGKILL would — no drain, no terminal
// journal records, the on-disk journal and checkpoints frozen mid-flight —
// for restart chaos tests that then reopen the same JournalDir.
func (s *Server) Kill(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopCompact) })
	s.compactWG.Wait()
	err := s.sched.Kill(ctx)
	if s.journal != nil {
		s.journal.Close()
	}
	for _, g := range s.graphs {
		if g.store != nil {
			g.store.Close()
		}
	}
	return err
}

// runJob is the jobs.Runner: it binds an admitted request to the engine
// with the graph's shared cache and the job's private checkpoint directory
// wired in.
func (s *Server) runJob(ctx context.Context, req jobs.Request, info jobs.RunInfo) (*core.Result, error) {
	g, ok := s.graphs[req.Graph]
	if !ok {
		return nil, fmt.Errorf("server: unknown graph %q", req.Graph)
	}
	prog, err := algorithms.ByName(req.Algorithm, graph.VertexID(req.Source))
	if err != nil {
		return nil, err
	}
	// Mutable graphs: pin a snapshot for the job's whole run. Mutations,
	// seals, and compactions landing while it executes cannot change what
	// it reads; the pin keeps retired base generations on disk until
	// released.
	layout := g.layout
	if g.store != nil {
		v := g.store.Snapshot()
		defer v.Release()
		layout = v.Layout()
	}
	opts := g.jobOptions(prog)
	opts.MaxIterations = req.MaxIterations
	opts.OnIteration = info.OnIteration
	if info.CheckpointDir != "" {
		opts.Checkpoint = core.CheckpointOptions{
			Every:  info.CheckpointEvery,
			Dir:    info.CheckpointDir,
			Resume: info.Resume && s.resumableCheckpoint(info.CheckpointDir, prog.Name(), opts.Async, g),
		}
	}
	res, err := core.RunContext(ctx, layout, prog, opts)
	if err != nil {
		return nil, err
	}
	g.fold(res)
	return res, nil
}

// resumableCheckpoint decides whether the checkpoint in dir (if any) can
// seed this run: same algorithm, same layout shape, same engine mode (a BSP
// run cannot resume an async checkpoint or vice versa — the loop states
// differ). A mismatched or corrupt checkpoint is discarded so the recovered
// job re-runs from scratch instead of failing: the journaled request is the
// contract, the checkpoint only an accelerator.
func (s *Server) resumableCheckpoint(dir, progName string, async bool, g *graphEntry) bool {
	if !checkpoint.Exists(dir) {
		return true // nothing there: Resume is a no-op, the run starts fresh
	}
	ci, err := checkpoint.Inspect(dir)
	if err == nil && ci.Algorithm == progName && ci.Async == async &&
		ci.NumVertices == g.manifest().NumVertices {
		return true
	}
	checkpoint.Remove(dir)
	return false
}

// jobOptions is how a job runs prog on graph g: with the default per-run
// buffer, behind the graph's shared cache and — for a label-correcting program
// on an async graph — under the async schedule. Other programs (pr, prd,
// widestpath, reach) silently run BSP so one server flag serves mixed
// workloads. prog may be nil.
func (g *graphEntry) jobOptions(prog core.Program) core.Options {
	opts := core.Options{DefaultBuffer: true, SharedBlocks: g.shared}
	if _, mono := prog.(core.Monotonic); mono && g.async {
		opts.Async = true
	}
	return opts
}

// estimateBytes predicts a job's peak engine memory for admission control:
// core.RunBytes of the options the job will run under, over the graph's live
// manifest (mutable graphs' edge volume drifts).
func (s *Server) estimateBytes(req jobs.Request) int64 {
	g, ok := s.graphs[req.Graph]
	if !ok {
		return 0
	}
	m := g.manifest()
	// An unknown algorithm fails validate; until then it is priced as a BSP
	// program without an aux array.
	prog, _ := algorithms.ByName(req.Algorithm, graph.VertexID(req.Source))
	opts := g.jobOptions(prog)
	if s.ckRoot != "" {
		// A journaled job checkpoints into a directory of its own under
		// ckRoot (runJob); which one, and how often, does not move the price.
		opts.Checkpoint = core.CheckpointOptions{Every: 1, Dir: s.ckRoot}
	}
	return core.RunBytes(&m, opts, prog)
}

// validate rejects a request the scheduler would accept but the runner
// would fail, so clients get a 400 instead of a failed job.
func (s *Server) validate(req jobs.Request) error {
	if req.Graph == "" || req.Algorithm == "" {
		return errors.New("graph and algorithm are required")
	}
	g, ok := s.graphs[req.Graph]
	if !ok {
		return fmt.Errorf("unknown graph %q (have %v)", req.Graph, s.names)
	}
	if _, err := algorithms.ByName(req.Algorithm, graph.VertexID(req.Source)); err != nil {
		return err
	}
	if nv := g.manifest().NumVertices; int(req.Source) >= nv {
		return fmt.Errorf("source %d out of range (graph has %d vertices)", req.Source, nv)
	}
	if req.MaxIterations < 0 || req.TimeoutMS < 0 {
		return errors.New("max_iterations and timeout_ms must be non-negative")
	}
	return nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/graphs/{name}/edges", s.handleMutate)
	s.mux.HandleFunc("POST /v1/graphs/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// mutationReq is one entry of a POST /v1/graphs/{name}/edges batch.
type mutationReq struct {
	Op     string  `json:"op"` // "insert" or "delete"
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
}

// mutableGraph resolves {name} to a mutable graph or writes the error:
// 404 for an unknown graph, 405 for one served read-only.
func (s *Server) mutableGraph(w http.ResponseWriter, r *http.Request) (*graphEntry, bool) {
	name := r.PathValue("name")
	g, ok := s.graphs[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q (have %v)", name, s.names)
		return nil, false
	}
	if g.store == nil {
		writeError(w, http.StatusMethodNotAllowed, "graph %q is not mutable (serve it with -mutable)", name)
		return nil, false
	}
	return g, true
}

// handleMutate applies one batch of edge mutations. The 200 response is the
// durability acknowledgement: every mutation in the batch is in the fsynced
// WAL and visible to snapshots taken after this call. Batches are
// all-or-nothing — any invalid mutation rejects the whole batch with 400
// and nothing is applied.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	g, ok := s.mutableGraph(w, r)
	if !ok {
		return
	}
	src, ok := s.meterMutation(w, r, http.MaxBytesReader(w, r.Body, 8<<20))
	if !ok {
		return
	}
	var body struct {
		Mutations []mutationReq `json:"mutations"`
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(body.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation batch")
		return
	}
	muts := make([]delta.Mutation, len(body.Mutations))
	for i, m := range body.Mutations {
		switch m.Op {
		case "insert":
			muts[i].Op = delta.OpInsert
		case "delete":
			muts[i].Op = delta.OpDelete
		default:
			writeError(w, http.StatusBadRequest, "mutation %d: op %q (want insert or delete)", i, m.Op)
			return
		}
		muts[i].Src = graph.VertexID(m.Src)
		muts[i].Dst = graph.VertexID(m.Dst)
		muts[i].Weight = m.Weight
	}
	err := g.store.Apply(muts)
	switch {
	case err == nil:
		st := g.store.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"accepted":        len(muts),
			"mutations_total": st.MutationsTotal,
			"delta_layers":    st.Layers,
			"memtable_bytes":  st.MemtableBytes,
		})
	case errors.Is(err, delta.ErrWALUnavailable):
		// The mutation log cannot take durable appends (device fault,
		// torn write): shed writes until a restart replays and re-opens it.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, delta.ErrClosed):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		// Validation failures reject the batch before anything is staged.
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleCompact triggers a synchronous compaction, folding every sealed
// delta layer into a new base generation. Idempotent: with nothing sealed
// it publishes nothing and still returns 200.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	g, ok := s.mutableGraph(w, r)
	if !ok {
		return
	}
	if err := g.store.Compact(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := g.store.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"generation":   st.Generation,
		"delta_layers": st.Layers,
		"delta_bytes":  st.LayerBytes,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	// With auth on, the authenticated identity is the tenant — a request
	// body naming someone else is an impersonation attempt, not a typo.
	if s.authOn {
		me := tenantFrom(r)
		if req.Tenant != "" && req.Tenant != me {
			writeError(w, http.StatusForbidden, "authenticated as tenant %q, cannot submit as %q", me, req.Tenant)
			return
		}
		req.Tenant = me
	}
	if err := s.validate(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.sched.Submit(req)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusAccepted, j.Status())
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrMemBudget),
		errors.Is(err, jobs.ErrTenantQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, jobs.ErrUnknownTenant):
		writeError(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, jobs.ErrClosed), errors.Is(err, jobs.ErrUnavailable), errors.Is(err, jobs.ErrJournalUnavailable):
		// Draining, or the journal is gone: the server sheds load instead
		// of accepting work it cannot run or make durable. Clients retry
		// after the restart (or against a healthy replica).
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// queryInt parses a non-negative integer query parameter, def when absent.
// ok is false (and the 400 written) on garbage or negative values.
func queryInt(w http.ResponseWriter, r *http.Request, key string, def int) (int, bool) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "bad %s=%q (want a non-negative integer)", key, v)
		return 0, false
	}
	return n, true
}

// listDefaultLimit pages GET /v1/jobs; clients walk next_offset for more.
const listDefaultLimit = 100

// handleList returns the caller-visible jobs in submission order, paginated:
// ?offset=N skips, ?limit=N caps the page (default 100, 0 for just the
// total). total counts the caller's jobs; next_offset appears while more
// remain. With auth on, each tenant sees only its own jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	offset, ok := queryInt(w, r, "offset", 0)
	if !ok {
		return
	}
	limit, ok := queryInt(w, r, "limit", listDefaultLimit)
	if !ok {
		return
	}
	// Visibility filtering needs the full (retention-bounded) list; the
	// page is cut after filtering so offsets are stable per tenant.
	visible := []jobs.Status{} // non-nil: an empty listing encodes as []
	for _, j := range s.sched.Jobs() {
		if st := j.Status(); s.visible(r, st) {
			visible = append(visible, st)
		}
	}
	total := len(visible)
	if offset > total {
		offset = total
	}
	end := total
	if limit < total-offset { // not offset+limit, which overflows on a huge limit
		end = offset + limit
	}
	out := map[string]any{
		"jobs":   visible[offset:end],
		"total":  total,
		"offset": offset,
	}
	if end < total {
		out["next_offset"] = end
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves {id} to a job the caller may see. Cross-tenant IDs 404
// exactly like unknown ones, so probing leaks nothing.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok || !s.visible(r, j.Status()) {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.sched.Cancel(j.ID()); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// jsonFloat encodes like float64 but renders the non-finite values a
// traversal run produces (unreachable vertices are +Inf) as JSON strings,
// which encoding/json otherwise rejects outright.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Infinity"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Infinity"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// vertexValue is one row of a result payload.
type vertexValue struct {
	Vertex uint32    `json:"vertex"`
	Value  jsonFloat `json:"value"`
}

// resultPayload is the /result response body for top-k requests. Full
// results (?full=1) are streamed by streamFullResult instead — they never
// materialise as one document in server memory.
type resultPayload struct {
	jobs.Status
	// Top holds the top-k vertices by descending value (?top=N, default
	// 10).
	Top []vertexValue `json:"top,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res := j.Result()
	if res == nil {
		st := j.Status()
		switch st.State {
		case "failed", "cancelled", "expired":
			writeJSON(w, http.StatusConflict, st)
		case "done":
			// A job that finished before a restart: the journal preserves
			// outcomes, not result payloads. Resubmitting the same request
			// recomputes the identical values.
			writeError(w, http.StatusGone, "job %s finished before a server restart; its result payload was not retained — resubmit the request to recompute it", j.ID())
		default:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusConflict, st)
		}
		return
	}
	if r.URL.Query().Get("full") == "1" {
		offset, ok := queryInt(w, r, "offset", 0)
		if !ok {
			return
		}
		limit, ok := queryInt(w, r, "limit", -1) // no limit: stream it all
		if !ok {
			return
		}
		streamFullResult(w, j.Status(), res.Outputs,
			resultPage{offset: offset, limit: limit, total: len(res.Outputs)})
		return
	}
	top := 10
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad top=%q", t)
			return
		}
		top = n
	}
	writeJSON(w, http.StatusOK, resultPayload{Status: j.Status(), Top: topK(res.Outputs, top)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"graphs":   s.names,
		"uptime_s": int64(time.Since(s.start).Seconds()),
	})
}
