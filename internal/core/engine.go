package core

import (
	"context"
	"fmt"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
	"github.com/graphsd/graphsd/internal/storage"
)

// sparseViewDensity is how sparse a BSP pass's frontier must be — at most one
// active vertex in this many — for the pass to take its blocks as run views and
// decode only the active sources' runs, and rowViewDensity how sparse an async
// row's frozen frontier must be for the row to; sparseViewDensity also bounds
// which resident hits stay off a stream; drivers hand both to their fetch
// plan (openFetch). A view costs one directory scan per block (1.1–3.4 ns/edge)
// and a per-run decode of the active edges on the consumer, per scatter, where
// the decoded route pays 8.8 ns/edge once on a prefetch worker
// (BenchmarkRunView, BenchmarkDecodeDeltaBlock). Timed pass by pass over
// frontiers drawn at a fixed density, on an R-MAT and a lattice layout, a plain
// full pass crosses over between one in 2 and one in 4 and an FCIU first pass,
// which scatters most blocks twice, between one in 4 and one in 8; this is the
// first power of two at which views measured faster on all four (CHANGES.md). A
// row scatters each cell once, so rowViewDensity is the plain pass's crossover
// at its sparse end: R-MAT rows any denser ran up to 1.8× slower as views
// (CHANGES.md).
const (
	sparseViewDensity = 8
	rowViewDensity    = 4
)

// Engine executes a vertex program over a partitioned on-disk graph using
// GraphSD's state- and dependency-aware update strategy — or, over a layout
// the paper's comparison systems built, HUS-Graph's or Lumos's (husgraph.go,
// lumos.go). Create one with NewEngine and call Run once; an Engine is
// single-use.
type Engine struct {
	layout *partition.Layout
	prog   Program
	opts   Options
	sched  *iosched.Scheduler
	buf    *buffer.Buffer

	// payloads: the per-run buffer keeps its sub-blocks — FCIU's secondaries,
	// the async row step's cells — as their delta payloads, which a hit
	// decodes on a prefetch worker or views on the consumer (openFetch):
	// the rule on a delta-coded layout, whatever the schedule. On a
	// raw layout it keeps decoded edges, served to the consumer as they are
	// (DESIGN.md §9). held[i*p+j] is what the fetch plan in progress found of
	// cell (i, j) in a buffer of payloads (heldCell).
	payloads bool
	held     []heldCell
	// spent collects the payloads the buffer let go during the fetch plan in
	// progress, for endFetch to make spares (offer).
	spent [][]byte

	// src is where every driver gets its edges from (see source.go).
	src *blockSource

	// ctx cancels the run between sub-blocks; never nil once run starts.
	ctx context.Context

	n, p    int
	degrees []uint32

	// BSP state. valPrev holds iteration t-1 values (scatter source),
	// valCur iteration t values (apply target). acc/touched are the
	// current iteration's accumulators; accNext/touchedNext stage
	// cross-iteration contributions for t+1.
	valPrev, valCur []float64
	aux             []float64
	acc, accNext    []float64
	touched         *bitset.ActiveSet
	touchedNext     *bitset.ActiveSet
	active          *bitset.ActiveSet
	newActive       *bitset.ActiveSet
	prescattered    *bitset.ActiveSet
	// crossWords is the t+1 frontier as an FCIU pass's helper reads it, copied
	// from newActive interval by interval as each is applied (crossFilter);
	// allocated by newSchedule for BSP schedules.
	crossWords []uint64

	// termPrev/termCur: the sum kernel's Gather of valPrev/valCur (fillTerms),
	// filled before every scatter that reads them, so never checkpointed.
	// advance swaps them with the values. termsAhead: the pass just run
	// crossed iterations, so it filled termCur from valCur over every interval
	// and the next pass's semBegin finds termPrev filled.
	termPrev, termCur []float64
	termsAhead        bool
	// semBegun, when set, is called at the end of every semBegin: a test's
	// view of the state a pass starts from.
	semBegun func()
	// fetchOpened, when set, is called as openFetch opens a plan: a test's
	// view of the frontier and cells a plan routes.
	fetchOpened func(active, span int, cells []buffer.Key)
	// popped and phaseEnded, when set, are called as a drain's value-order
	// phase pops a vertex and as it ends: a test's view of the order
	// (settleInOrder) and of the memory the phase holds.
	popped     func(v int)
	phaseEnded func(a *asyncRun)
	// rowPopped, when set, is called as an async step pops row i, before it
	// runs: a test's view of the schedule.
	rowPopped func(i int)

	// crossJoined, when set, is called as an FCIU pass joins its helper
	// (crossHelper) with how many scatters it handed over and the helper's
	// kernel time: a test's view of which passes the helper ran.
	crossJoined func(handOffs int, compute time.Duration)

	// runEdges is scatterBlock's reusable batch of the edges it decodes from a
	// run view: those of the scatter's active sources, dead once scattered.
	runEdges []graph.Edge

	// kernel is the scatter loop the program declared, affine its apply (see
	// kernel.go).
	kernel EdgeKernel
	affine affineApply

	// applySpan is the schedule's per-vertex apply loop over an interval,
	// bound once by newSchedule so that applyInterval allocates nothing;
	// applyEvery makes it (and applyInterval) visit every vertex rather than
	// the touched ones. fill: fill termCur over the interval in the same loop
	// (applyAffine).
	applySpan  func(lo, hi int, fill bool) applied
	applyEvery bool

	// plStats accumulates block-stream outcomes across all passes.
	plStats pipeline.Stats

	// rowLive[i] says source interval i holds an active vertex of the
	// frontier the pass in progress scatters from; semBegin refills it at every
	// pass start. allLive is Lumos's policy, not state-aware: every row counts
	// as live, so a pass reads every cell it is due without skipping and writes
	// every interval's values back (semEnd). applied[j] says the BSP apply
	// phase of the pass in progress visited interval j (applyBSP sets it for
	// every interval). The two sets are the pass's value traffic (semEnd).
	rowLive []bool
	allLive bool
	applied []bool

	// computeTime is the run's scatter, apply and fill time; applyTime is
	// applyInterval's share of it.
	computeTime, applyTime time.Duration
}

// NewEngine prepares an engine for one run of prog over layout, under the
// schedule of the system that built it (newSchedule). The baselines' layouts
// run BSP without checkpoints, unbuffered — NewEngine drops BufferBytes,
// DefaultBuffer and SharedBlocks for them — and read no other option but
// MaxIterations, OnIteration, on HUS-Graph's decision ForceModel and, on
// their block streams (Lumos's cells, HUS-Graph's columns), PrefetchDepth and
// PrefetchBytes.
func NewEngine(layout *partition.Layout, prog Program, opts Options) (*Engine, error) {
	m := &layout.Meta
	schedCfg := iosched.Config{
		Profile:         layout.Dev.Profile(),
		NumVertices:     m.NumVertices,
		NumEdges:        m.NumEdges,
		EdgeRecordBytes: m.EdgeRecordBytes(),
	}
	switch m.System {
	case "graphsd", "lumos":
		schedCfg.EdgeBytesOnDisk = m.EdgeDiskBytesTotal()
		schedCfg.EdgeBytesOnDemand = m.SelectiveDiskBytesTotal()
		schedCfg.P = m.P
		schedCfg.BlocksPerRow = m.NonEmptyBlocksPerRow()
		schedCfg.RowDiskBytes = m.RowDiskBytes()
		schedCfg.EdgeCounts = m.EdgeCounts
	case "husgraph":
		// HUS-Graph's row blocks keep each vertex's whole edge list
		// contiguous, so an active run costs a single positioning seek.
		schedCfg.P = 1
	default:
		return nil, fmt.Errorf("core: layout built for unknown system %q", m.System)
	}
	if m.System != "graphsd" {
		if opts.Async || opts.Checkpoint != (CheckpointOptions{}) {
			return nil, fmt.Errorf("core: Options.Async and Options.Checkpoint are only supported for graphsd layouts (this one is %q)", m.System)
		}
		opts.BufferBytes, opts.DefaultBuffer, opts.SharedBlocks = 0, false, nil
	}
	if prog.Weighted() && !m.Weighted {
		return nil, fmt.Errorf("core: program %s needs edge weights but layout is unweighted", prog.Name())
	}
	sched, err := iosched.New(schedCfg)
	if err != nil {
		return nil, err
	}
	kernel, err := kernelOf(prog)
	if err != nil {
		return nil, err
	}
	n := layout.Meta.NumVertices
	affine, err := affineOf(prog, n)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		layout:       layout,
		prog:         prog,
		kernel:       kernel,
		affine:       affine,
		opts:         opts,
		sched:        sched,
		n:            n,
		p:            layout.Meta.P,
		valPrev:      make([]float64, n),
		valCur:       make([]float64, n),
		acc:          make([]float64, n),
		accNext:      make([]float64, n),
		touched:      bitset.NewActiveSet(n),
		touchedNext:  bitset.NewActiveSet(n),
		active:       bitset.NewActiveSet(n),
		newActive:    bitset.NewActiveSet(n),
		prescattered: bitset.NewActiveSet(n),
		rowLive:      make([]bool, layout.Meta.P),
		applied:      make([]bool, layout.Meta.P),
		allLive:      m.System == "lumos",
		src:          newBlockSource(layout, opts.SharedBlocks),
		buf:          buffer.New(opts.bufferBytes(&layout.Meta)),
	}
	if prog.HasAux() {
		e.aux = make([]float64, n)
	}
	if kernel == KernelSumOverOutDegree {
		e.termPrev, e.termCur = make([]float64, n), make([]float64, n)
	}
	if opts.payloads(&layout.Meta) {
		e.payloads = true
		e.held = make([]heldCell, e.p*e.p)
	}
	id := prog.Identity()
	for v := 0; v < n; v++ {
		e.acc[v] = id
		e.accNext[v] = id
	}
	return e, nil
}

// Run executes the program to convergence or the iteration bound and
// returns the result. The result's IO snapshot is computed as a delta over
// the device counters, so it covers exactly this run without resetting the
// device — layouts (and their stats) can be shared between runs.
func Run(layout *partition.Layout, prog Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), layout, prog, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled or times out,
// the engine stops at the next sub-block boundary and returns ctx's error
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded), leaving no
// goroutines behind. This is how the job server aborts running jobs.
func RunContext(ctx context.Context, layout *partition.Layout, prog Program, opts Options) (*Result, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	return e.run()
}

// System is one row of the paper's comparison: the name a layout's manifest
// records, the preprocessor that writes that layout and the runner, RunContext
// in every row — the manifest picks the schedule. The CLI (preprocess, compare)
// and the experiment harness pick builders here and nowhere else; the harness's
// tests substitute a row's Run.
type System struct {
	Name  string
	Build func(dev *storage.Device, g *graph.Graph, p int, opts ...partition.BuildOption) (*partition.Layout, error)
	Run   func(ctx context.Context, l *partition.Layout, prog Program, opts Options) (*Result, error)
}

// Systems returns the comparison table, GraphSD first.
func Systems() []System {
	return []System{
		{"graphsd", partition.Build, RunContext},
		{"husgraph", partition.BuildHUSGraph, RunContext},
		{"lumos", partition.BuildLumos, RunContext},
	}
}

// SystemByName returns the table row called name.
func SystemByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("core: unknown system %q", name)
}

// checkCtx reports the run's cancellation state; called between sub-blocks
// and at iteration boundaries so a cancelled run stops promptly without
// tearing down mid-scatter.
func (e *Engine) checkCtx() error { return e.ctx.Err() }

// run is the engine's one loop: set-up, resume, then step after step of the
// schedule newSchedule selects, each measured as deltas over the engine's
// counters, checkpointed on the configured cadence and reported to
// OnIteration. A checkpoint is written while the next step runs and taking
// one waits for the write before it, so a reported step's images are all on
// disk but the newest; every return drains the writer (CheckpointOptions).
func (e *Engine) run() (*Result, error) {
	s, err := e.newSchedule()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	defer e.src.close()
	dev := e.layout.Dev
	ioBase := dev.Stats()
	decodeStart := e.layout.DecodeTime()

	e.degrees, err = e.layout.LoadDegrees()
	if err != nil {
		return nil, err
	}
	e.prog.Init(e.n, e.valPrev, e.aux, e.active)

	ck := e.opts.Checkpoint
	var from *checkpoint.State
	if ck.Resume && ck.Dir != "" && checkpoint.Exists(ck.Dir) {
		if from, err = checkpoint.Load(ck.Dir); err != nil {
			return nil, err
		}
		if err := e.restore(from); err != nil {
			return nil, err
		}
	}
	maxIter := e.prog.MaxIterations()
	if e.opts.MaxIterations > 0 {
		maxIter = e.opts.MaxIterations
	}
	bound, err := s.start(from, maxIter)
	if err != nil {
		return nil, err
	}
	n := 0 // completed steps
	if from != nil {
		n = from.Iteration
	}
	resumedFrom := n

	// One IterStat serves every step: the schedule fills it through a
	// pointer, which would otherwise cost an allocation per step.
	var st IterStat
	var iterStats []IterStat
	checkpoints := 0
	var ckWait time.Duration // blocked in the writer's Put and Close
	var ckw *checkpoint.Writer
	if ck.saveEnabled() {
		// A run that did not resume clears the images of an earlier one, which
		// could outrank its own in Load.
		if from == nil {
			if err := checkpoint.Remove(ck.Dir); err != nil {
				return nil, err
			}
		}
		ckw = checkpoint.NewWriter(ck.Dir)
		defer ckw.Close() // on an error return, the run's own error wins
	}
	for n < bound {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		if !s.pending() {
			break
		}
		ioBefore := dev.Stats()
		computeBefore := e.computeTime
		plBefore := e.plStats
		decodeBefore := e.layout.DecodeTime()

		st = IterStat{Index: n, Active: e.active.Count()}
		t0 := time.Now()
		if err := s.step(n, &st); err != nil {
			return nil, err
		}
		st.Wall = time.Since(t0)
		n++

		st.IO = dev.Stats().Sub(ioBefore)
		st.IOTime = st.IO.TotalTime()
		st.ComputeTime = e.computeTime - computeBefore
		st.DecodeTime = e.layout.DecodeTime() - decodeBefore
		st.Pipeline = e.plStats.Sub(plBefore)
		s.measured(&st)
		iterStats = append(iterStats, st)
		if ckw != nil && n%ck.Every == 0 {
			img := e.capture(n, s)
			t := time.Now()
			if err := ckw.Put(img); err != nil {
				return nil, err
			}
			ckWait += time.Since(t)
			checkpoints++
		}
		if e.opts.OnIteration != nil {
			e.opts.OnIteration(st)
		}
	}
	if ckw != nil {
		t := time.Now()
		if err := ckw.Close(); err != nil {
			return nil, err
		}
		ckWait += time.Since(t)
	}

	res := e.result(start, ioBase, decodeStart)
	res.Iterations = n
	res.Converged = !s.pending()
	res.IterStats = iterStats
	res.Resumed = from != nil
	res.ResumedFrom = resumedFrom
	res.Checkpoints = checkpoints
	res.CheckpointWait = ckWait
	s.finish(res)
	return res, nil
}

// result computes the program outputs from valPrev and fills in everything
// that is not an outcome of run's loop.
func (e *Engine) result(start time.Time, ioBase storage.Snapshot, decodeStart time.Duration) *Result {
	outputs := make([]float64, e.n)
	tOut := time.Now()
	for v := range outputs {
		outputs[v] = e.prog.Output(graph.VertexID(v), e.valPrev[v], e.aux)
	}
	e.computeTime += time.Since(tOut)

	src := e.src
	return &Result{
		Algorithm:         e.prog.Name(),
		Outputs:           outputs,
		WallTime:          time.Since(start),
		ComputeTime:       e.computeTime,
		ApplyTime:         e.applyTime,
		DecodeTime:        e.layout.DecodeTime() - decodeStart,
		Codec:             e.layout.Meta.BlockCodec().String(),
		CompressRatio:     compressRatio(&e.layout.Meta),
		IO:                e.layout.Dev.Stats().Sub(ioBase),
		SharedHits:        src.sharedHits.Load(),
		SharedMisses:      src.sharedMisses.Load(),
		Decisions:         append([]iosched.Decision(nil), e.sched.History()...),
		SchedulerOverhead: e.sched.TotalOverhead(),
		SchedAccuracy:     e.sched.Accuracy(),
		Buffer:            e.buf.Stats(),
		Pipeline:          e.plStats,
		SEM: SEMStats{
			BlocksSkipped:   int64(e.plStats.Skipped),
			BytesSkipped:    e.plStats.SkippedBytes,
			CompressedHits:  src.compHits.Load(),
			CompressedBytes: src.compBytes.Load(),
			DecodedBytes:    src.compDecodedBytes.Load(),
		},
	}
}

// compressRatio returns decoded/on-disk edge payload bytes — 1.0 for raw
// layouts, >1 when the delta codec shrank the blocks.
func compressRatio(m *partition.Manifest) float64 {
	disk := m.EdgeDiskBytesTotal()
	if disk <= 0 {
		return 1
	}
	return float64(m.EdgeBytesTotal()) / float64(disk)
}

// decide selects the iteration's I/O access model, honouring ForceModel.
// Forced runs still record a Decision so experiment traces stay uniform.
func (e *Engine) decide(iter int) iosched.Model {
	d := e.sched.Decide(iter, e.active, e.degrees)
	if e.opts.ForceModel != nil {
		return *e.opts.ForceModel
	}
	return d.Model
}

// applied is what applying an interval did: vertices newly set in the
// schedule's frontier, and — async only — how many of those had been consumed
// before.
type applied struct {
	woken, reacts int
}

// applyInterval is the apply frame both schedules share. It runs the
// schedule's applySpan over interval j — over every vertex of it for
// always-active programs under BSP, otherwise over those in touched — and
// restores the accumulator identity invariant: touched is cleared here, the
// accumulators by applySpan. It returns how many vertices it applied and
// what applying them did. fill is handed to applySpan (applyBSP).
//
// The per-vertex loop is the schedule's, bound once in applySpan, not a
// callback per vertex: one indirect call per interval keeps Apply the only
// dynamic call in the loop, and an affine apply has none.
func (e *Engine) applyInterval(j int, fill bool) (count int, out applied) {
	lo, hi := e.layout.Meta.Interval(j)
	t0 := time.Now()
	count = hi - lo
	if !e.applyEvery {
		count = e.touched.CountRange(lo, hi)
	}
	if count > 0 {
		out = e.applySpan(lo, hi, fill)
		e.touched.ClearRange(lo, hi)
	}
	d := time.Since(t0)
	e.computeTime += d
	e.applyTime += d
	return count, out
}

// applySpanBSP applies the vertices of [lo, hi) in ascending order — all of
// them, or those in touched — into valCur, and counts those it newly set in
// newActive. It leaves touched alone: applyInterval clears the whole interval.
// A program that declares an affine apply runs applyAffine, which alone takes
// fill.
func (e *Engine) applySpanBSP(lo, hi int, fill bool) (out applied) {
	if e.affine.ok {
		return e.applyAffine(lo, hi, fill)
	}
	id := e.prog.Identity()
	newActive := e.newActive.Words()
	apply := func(v int) bool {
		nv, act := e.prog.Apply(graph.VertexID(v), e.valPrev[v], e.acc[v], e.aux, e.n)
		e.valCur[v] = nv
		if act {
			out.woken += setBit(newActive, v)
		}
		e.acc[v] = id
		return true
	}
	if e.applyEvery {
		for v := lo; v < hi; v++ {
			apply(v)
		}
		return out
	}
	e.touched.ForEachRange(lo, hi, apply)
	return out
}

// applyAffine is applySpanBSP for a program that declares an affine apply
// (always active, so every vertex of [lo, hi) is applied): one loop that
// writes each value as base + scale*acc, resets acc to the identity and, with
// fill, sets termCur as fillTerms would from the value just written. It then
// sets the interval in newActive by range, counting only the bits it newly
// sets. The floating-point operations are Apply's and fillTerms', on the same
// operands in the same order, and the expression has Apply's shape, so a
// compiler that fuses the multiply-add fuses both: the bits are theirs.
func (e *Engine) applyAffine(lo, hi int, fill bool) applied {
	base, scale, id := e.affine.base, e.affine.scale, e.prog.Identity()
	acc, cur := e.acc[lo:hi], e.valCur[lo:hi]
	cur = cur[:len(acc)] // one bounds check per slice, not per vertex
	if fill {
		terms, degrees := e.termCur[lo:hi], e.degrees[lo:hi]
		terms, degrees = terms[:len(acc)], degrees[:len(acc)]
		for k, m := range acc {
			nv := base + scale*m
			cur[k] = nv
			acc[k] = id
			t := 0.0
			if d := degrees[k]; d != 0 {
				t = nv / float64(d)
			}
			terms[k] = t
		}
	} else {
		for k, m := range acc {
			cur[k] = base + scale*m
			acc[k] = id
		}
	}
	return applied{woken: bitset.FillWords(e.newActive.Words(), lo, hi)}
}

// applyBSP runs the apply phase of interval j into newActive and records
// whether it visited the interval. fill: the pass scatters interval j's new
// values next (runPass's cross scatters), so termCur is filled over it too —
// inside an affine apply's loop, else right after it.
func (e *Engine) applyBSP(j int, fill bool) {
	fuse := fill && e.affine.ok && e.kernel == KernelSumOverOutDegree
	count, out := e.applyInterval(j, fuse)
	e.newActive.AddCount(out.woken)
	e.applied[j] = count > 0
	if fill && !fuse {
		lo, hi := e.layout.Meta.Interval(j)
		e.fillTerms(e.termCur, e.valCur, lo, hi)
	}
}

// fillTerms sets terms[v] to KernelSumOverOutDegree's Gather of vals[v] for
// every v in [lo, hi), once the values a scatter's filter picks there are
// final: at a pass's start, an interval's apply, an async step's freeze. The
// terms of vertices outside the filter are never read; skipping them would
// cost a bit test per vertex, more than the division it saves.
func (e *Engine) fillTerms(terms, vals []float64, lo, hi int) {
	if e.kernel != KernelSumOverOutDegree {
		return
	}
	t0 := time.Now()
	terms, vals = terms[lo:hi], vals[lo:hi]
	for k, deg := range e.degrees[lo:hi] {
		t := 0.0
		if deg != 0 {
			t = vals[k] / float64(deg)
		}
		terms[k] = t
	}
	e.computeTime += time.Since(t0)
}

// from is a scatter's source side: vals (terms, for the sum kernel) over filter
// from source interval i, full when the sum loop may skip its filter test
// because filter holds all of interval i, and untracked when the pass also
// applies every vertex (applyEvery); i < 0: any interval.
func (e *Engine) from(vals, terms []float64, filter *bitset.ActiveSet, i int) scatterArgs {
	full := i >= 0 && e.kernel == KernelSumOverOutDegree &&
		filter.CountRange(e.layout.Meta.Interval(i)) == e.layout.Meta.IntervalLen(i)
	return scatterArgs{vals: vals, terms: terms, degrees: e.degrees, filter: filter.Words(), full: full, untracked: full && e.applyEvery}
}

// scatter merges the contributions of edges whose source is in src's filter
// into acc/touched (timedScatter) and charges the time to the run's compute.
func (e *Engine) scatter(edges []graph.Edge, src scatterArgs, acc []float64, touched *bitset.ActiveSet, dstLo, dstHi int) {
	e.computeTime += e.timedScatter(edges, src, acc, touched, dstLo, dstHi)
}

// timedScatter is the program's kernel over all edges, in order, on the
// calling goroutine, so a destination's contributions merge in edge order on
// every host; it returns the time it took. dstLo/dstHi bound the destinations
// of edges; the touched bits the call sets are counted over that range, before
// and after. It keeps no memory, whatever the range, and writes nothing of the
// engine's but acc and touched, so FCIU's helper runs it too (crossHelper).
//
// An untracked call instead marks all of [dstLo, dstHi) — the destination
// interval, which the pass's apply visits whole whatever touched holds — so
// touched stays non-empty exactly when the tracked loop would have left it so,
// which is all that pending, an FCIU first half's secondaryPending and a
// checkpoint's TouchedNext read of it under applyEvery.
func (e *Engine) timedScatter(edges []graph.Edge, src scatterArgs, acc []float64, touched *bitset.ActiveSet, dstLo, dstHi int) time.Duration {
	if len(edges) == 0 {
		return 0
	}
	t0 := time.Now()
	src.acc, src.touched = acc, touched.Words()
	if src.untracked {
		runKernel(e.kernel, e.prog, edges, src)
		touched.FillRange(dstLo, dstHi)
	} else {
		before := touched.CountRange(dstLo, dstHi)
		runKernel(e.kernel, e.prog, edges, src)
		touched.AddCount(touched.CountRange(dstLo, dstHi) - before)
	}
	return time.Since(t0)
}

// activeEdgeCount returns how many of edges have an active source, the
// priority metric of the secondary sub-block buffer.
func activeEdgeCount(edges []graph.Edge, active *bitset.ActiveSet) int64 {
	var c int64
	for _, ed := range edges {
		if active.Contains(int(ed.Src)) {
			c++
		}
	}
	return c
}

// activeEdgeSampleCap bounds the edges examined per buffer-priority
// computation. Sub-blocks above the cap are stride-sampled and the count
// scaled up, so refreshing every resident's priority after an FCIU pass
// costs O(residents × cap) instead of a full rescan of all resident edges.
// The stride is deterministic, keeping engine runs reproducible.
const activeEdgeSampleCap = 4096

// activeEdgeEstimate returns activeEdgeCount exactly for small edge lists
// and a deterministic sampled estimate for large ones.
func activeEdgeEstimate(edges []graph.Edge, active *bitset.ActiveSet) int64 {
	if len(edges) <= activeEdgeSampleCap {
		return activeEdgeCount(edges, active)
	}
	stride := (len(edges) + activeEdgeSampleCap - 1) / activeEdgeSampleCap
	var c, sampled int64
	for k := 0; k < len(edges); k += stride {
		if active.Contains(int(edges[k].Src)) {
			c++
		}
		sampled++
	}
	return c * int64(len(edges)) / sampled
}

// clampedActiveEdgeEstimate is activeEdgeEstimate clamped to ≥1 while source
// row i holds an active vertex: stride sampling can miss
// every active source of a live block and return 0, which would demote a
// hot block to the bottom of the eviction order even though it still holds
// active edges.
func clampedActiveEdgeEstimate(edges []graph.Edge, set *bitset.ActiveSet, meta *partition.Manifest, i int) int64 {
	est := activeEdgeEstimate(edges, set)
	if est == 0 && len(edges) > 0 {
		lo, hi := meta.Interval(i)
		if set.CountRange(lo, hi) > 0 {
			est = 1
		}
	}
	return est
}
