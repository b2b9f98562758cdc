package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/pipeline"
)

// Scatterer drives Engine.scatter over caller-built arrays, with no layout
// behind it, for the kernel tests and BenchmarkScatterKernel.
type Scatterer struct{ e *Engine }

// NewScatterer prepares prog's declared scatter loop.
func NewScatterer(prog Program, degrees []uint32) (*Scatterer, error) {
	k, err := kernelOf(prog)
	if err != nil {
		return nil, err
	}
	return &Scatterer{&Engine{prog: prog, kernel: k, degrees: degrees, termPrev: make([]float64, len(degrees))}}, nil
}

func (s *Scatterer) Kernel() EdgeKernel { return s.e.kernel }

// Fill fills the terms Scatter reads from vals, as a pass's start does.
func (s *Scatterer) Fill(vals []float64) { s.e.fillTerms(s.e.termPrev, vals, 0, len(vals)) }

// ApplyEvery makes s scatter as under a pass that applies every vertex of an
// always-active program (Engine.applyEvery): the sum loop over a full row then
// takes its untracked path.
func (s *Scatterer) ApplyEvery() { s.e.applyEvery = true }

// Scatter scatters edges, whose sources lie in [srcLo, srcHi), from vals and
// the terms Fill filled of them over filter, as a pass scatters a cell of that
// source interval: without the filter test when filter holds all of it.
func (s *Scatterer) Scatter(edges []graph.Edge, vals []float64, filter *bitset.ActiveSet, acc []float64, touched *bitset.ActiveSet, srcLo, srcHi, dstLo, dstHi int) {
	s.e.scatter(edges, s.args(vals, filter, srcLo, srcHi), acc, touched, dstLo, dstHi)
}

// Loop runs the scatter loop alone on the arguments Scatter would hand it,
// over raw touched words: it neither counts touched bits nor marks intervals.
func (s *Scatterer) Loop(edges []graph.Edge, vals []float64, filter *bitset.ActiveSet, acc []float64, touched []uint64, srcLo, srcHi int) {
	a := s.args(vals, filter, srcLo, srcHi)
	a.acc, a.touched = acc, touched
	runKernel(s.e.kernel, s.e.prog, edges, a)
}

func (s *Scatterer) args(vals []float64, filter *bitset.ActiveSet, srcLo, srcHi int) scatterArgs {
	full := s.e.kernel == KernelSumOverOutDegree && filter.CountRange(srcLo, srcHi) == srcHi-srcLo
	return scatterArgs{vals: vals, terms: s.e.termPrev, degrees: s.e.degrees, filter: filter.Words(), full: full, untracked: full && s.e.applyEvery}
}

// SparseViewDensity is the frontier density at or below which a full-model
// pass takes run views.
const SparseViewDensity = sparseViewDensity

// CrossQueue is how many handed-over cross scatters wait for an FCIU pass's
// helper beside the one it runs.
const CrossQueue = crossQueue

// RowViewDensity is the frozen-frontier density at or below which an async
// row takes run views.
const RowViewDensity = rowViewDensity

// FetchPlan is one fetch plan a step opened (Engine.openFetch): the frozen
// frontier's size, the span of its row, the cells it was handed and how many
// run views the source built from its opening to the next plan's, or the
// step's end.
type FetchPlan struct {
	Frozen, Span int
	Cells        [][2]int
	Views        int64
}

// RunCountingPlanViews is RunCountingViews, poisoning, that also reports the
// fetch plans each step opened.
func RunCountingPlanViews(layout *partition.Layout, prog Program, opts Options) (res *Result, views []int64, plans [][]FetchPlan, err error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	e.src.poison = true
	var step []FetchPlan
	var seen, cut int64 // views at the step's start and at the last plan boundary
	mark := func() {
		now := e.src.viewBlocks.Load()
		if n := len(step); n > 0 {
			step[n-1].Views = now - cut
		}
		cut = now
	}
	e.fetchOpened = func(active, span int, cells []buffer.Key) {
		mark()
		p := FetchPlan{Frozen: active, Span: span}
		for _, k := range cells {
			p.Cells = append(p.Cells, [2]int{k.I, k.J})
		}
		step = append(step, p)
	}
	e.opts.OnIteration = func(st IterStat) {
		mark()
		now := e.src.viewBlocks.Load()
		views, seen = append(views, now-seen), now
		plans, step = append(plans, step), nil
	}
	res, err = e.run()
	return res, views, plans, err
}

// RunCountingPops is Run that also reports, per step, the vertices its drain's
// value-order phase popped, in pop order (none for a step that did not switch).
func RunCountingPops(layout *partition.Layout, prog Program, opts Options) (res *Result, pops [][]int, err error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, nil, err
	}
	var step []int
	e.popped = func(v int) { step = append(step, v) }
	e.opts.OnIteration = func(IterStat) {
		pops, step = append(pops, step), nil
	}
	res, err = e.run()
	return res, pops, err
}

// DrainBytes is what RunBytes charges for a drain's value-order phases.
func DrainBytes(m *partition.Manifest) int64 { return drainBytes(m) }

// RunMeasuringPhases is Run that also reports the most memory a value-order
// phase held as it ended: its heap's capacity, the run offsets, the diagonal's
// placed edges and the engine's run scratch, which the phase decodes into.
func RunMeasuringPhases(layout *partition.Layout, prog Program, opts Options) (res *Result, held int64, err error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, 0, err
	}
	entry, edge := int64(unsafe.Sizeof(valueEntry{})), int64(unsafe.Sizeof(graph.Edge{}))
	e.phaseEnded = func(a *asyncRun) {
		held = max(held, entry*int64(cap(a.order))+8*int64(cap(a.diagOff))+edge*int64(cap(a.diagEdges)+cap(e.runEdges)))
	}
	res, err = e.run()
	return res, held, err
}

// RunCountingViews is Run that also reports, per iteration, how many
// sub-blocks reached the pass as run views. With poison set the source
// scribbles over each view's payload as the pass releases it, so a scatter
// from a released block fails the run.
func RunCountingViews(layout *partition.Layout, prog Program, opts Options, poison bool) (*Result, []int64, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, nil, err
	}
	e.src.poison = poison
	var views []int64
	var seen int64
	onIter := opts.OnIteration
	e.opts.OnIteration = func(st IterStat) {
		now := e.src.viewBlocks.Load()
		views, seen = append(views, now-seen), now
		if onIter != nil {
			onIter(st)
		}
	}
	res, err := e.run()
	return res, views, err
}

// CrossStep is what RunCountingHandOffs saw of one iteration: how many
// sub-blocks reached its pass as run views, how many cross scatters the pass
// handed to the helper (crossHelper) and the helper's kernel time, which the
// iteration's ComputeTime includes.
type CrossStep struct {
	Views, HandOffs int
	HelperCompute   time.Duration
}

// RunCountingHandOffs is Run that reports a CrossStep per iteration. With
// poison set the source scribbles over each pooled block as it is released, so
// a scatter from a released block fails the run.
func RunCountingHandOffs(layout *partition.Layout, prog Program, opts Options, poison bool) (*Result, []CrossStep, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, nil, err
	}
	e.src.poison = poison
	var steps []CrossStep
	var cur CrossStep
	var seen int64
	e.crossJoined = func(handOffs int, compute time.Duration) {
		cur.HandOffs += handOffs
		cur.HelperCompute += compute
	}
	e.opts.OnIteration = func(IterStat) {
		now := e.src.viewBlocks.Load()
		cur.Views, seen = int(now-seen), now
		steps, cur = append(steps, cur), CrossStep{}
	}
	res, err := e.run()
	return res, steps, err
}

// RunKeepingBuffer is Run, with release poisoning as RunCountingViews' does,
// that also hands back the per-run buffer as the run left it.
func RunKeepingBuffer(layout *partition.Layout, prog Program, opts Options, poison bool) (*Result, *buffer.Buffer, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, nil, err
	}
	e.src.poison = poison
	res, err := e.run()
	return res, e.buf, err
}

// PoolStats is what a run's pool of decoded slices (blockSource.edgeBufs) came
// to: the slices it allocated and the most edges any of them grew to hold.
type PoolStats struct {
	Slices, MaxEdges int
}

// RunCountingPooledSlices is Run, with release poisoning as RunCountingViews'
// does, that reports what the decoded-slice pool allocated. It runs on one P
// with the collector off, so the pool keeps every slice handed back to it and
// allocates only when more slices are out at once than ever before: Slices is
// the most the run held at once (outside the race detector, which drops some
// of what the pool is handed back).
func RunCountingPooledSlices(layout *partition.Layout, prog Program, opts Options) (*Result, PoolStats, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, PoolStats{}, err
	}
	e.src.poison = true
	var mu sync.Mutex
	var made []*[]graph.Edge
	e.src.edgeBufs.New = func() any {
		p := new([]graph.Edge)
		mu.Lock()
		made = append(made, p)
		mu.Unlock()
		return p
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, err := e.run()
	st := PoolStats{Slices: len(made)}
	for _, p := range made {
		st.MaxEdges = max(st.MaxEdges, cap(*p))
	}
	return res, st, err
}

// SpareStats is what a run's payload spares (blockSource.spares) came to: the
// most bytes they and the payloads collected for them held at once, the
// buffered misses that read into one, and the per-run buffer's misses in all.
type SpareStats struct {
	HighBytes    int64
	Hits, Misses int
}

// RunCountingSpares is Run, with release poisoning as RunCountingViews' does —
// which scribbles every payload before it becomes a spare — that reports what
// the run's payload spares came to.
func RunCountingSpares(layout *partition.Layout, prog Program, opts Options) (*Result, SpareStats, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, SpareStats{}, err
	}
	e.src.poison = true
	res, err := e.run()
	e.src.spMu.Lock()
	defer e.src.spMu.Unlock()
	return res, SpareStats{HighBytes: e.src.spareHigh, Hits: e.src.spareHits, Misses: int(e.buf.Stats().Misses)}, err
}

// MaxOpenBlocks is the number of block descriptors a run keeps open.
const MaxOpenBlocks = maxOpenBlocks

// HandleStats is what a finished run's block handles came to hold.
type HandleStats struct {
	Handles              int
	IndexBytes, DirBytes int64
}

// RunWithHandleCap is RunContext with the run's descriptor bound set to
// maxOpen — 0 makes every load open and close its file, as loads did before
// handles — that also reports what the handles held when the run returned.
func RunWithHandleCap(ctx context.Context, layout *partition.Layout, prog Program, opts Options, maxOpen int) (*Result, HandleStats, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, HandleStats{}, err
	}
	e.ctx = ctx
	e.src.maxOpen = maxOpen
	res, err := e.run()
	var st HandleStats
	for _, h := range e.src.handles {
		st.Handles++
		if h.idx != nil {
			st.IndexBytes += int64(cap(h.idx.Rec)+cap(h.idx.Off)) * 8
		}
		st.DirBytes += h.dir.Bytes()
	}
	return res, st, err
}

// RunAllRowsLive is Run with every source interval counted as live on every
// pass — Lumos's policy (Engine.allLive) on a GraphSD layout: no sub-block is
// skipped for want of an active vertex, so a full-model pass reads every
// non-empty cell of its kind, and writes every interval's values back. It is
// the oracle the skipping tests hold a run to — same outputs by bits, and the
// device traffic skipping is measured against. (The scheduler still prices the
// frontier's rows; pin the model.)
func RunAllRowsLive(layout *partition.Layout, prog Program, opts Options) (*Result, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, err
	}
	e.allLive = true
	return e.run()
}

// PassCells names a full-model pass for RunPassFrom.
type PassCells = passCells

const (
	FCIUFirstPass  = fciuFirstCells
	FCIUSecondPass = fciuSecondCells
	FullPass       = fullCells
)

// RunPassFrom readies an engine as run does up to its first step, replaces
// the frontier with the vertices in frontier, loads the cells in resident into
// the per-run buffer the way a pass offers them, then runs one pass over cells
// and returns what it recorded of its block stream.
func RunPassFrom(layout *partition.Layout, prog Program, opts Options, cells PassCells, frontier []int, resident [][2]int) (pipeline.Stats, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return pipeline.Stats{}, err
	}
	s, err := e.newSchedule()
	if err != nil {
		return pipeline.Stats{}, err
	}
	e.ctx = context.Background()
	defer e.src.close()
	if e.degrees, err = layout.LoadDegrees(); err != nil {
		return pipeline.Stats{}, err
	}
	e.prog.Init(e.n, e.valPrev, e.aux, e.active)
	if _, err := s.start(nil, 1); err != nil {
		return pipeline.Stats{}, err
	}
	e.active.Reset()
	for _, v := range frontier {
		e.active.Activate(v)
	}
	for _, c := range resident {
		k := buffer.Key{I: c[0], J: c[1]}
		var blk block
		var err error
		if e.payloads {
			blk, err = e.src.secondary(c[0], c[1], false, true)
		} else {
			blk.edges, err = e.src.full(c[0], c[1])
		}
		if err != nil {
			return pipeline.Stats{}, err
		}
		e.offer(k, blk, e.passRank(k))
		e.src.release(blk)
	}
	return e.plStats, e.runPass(cells)
}

// VertexStateBytes is the per-vertex item of RunBytes.
func VertexStateBytes(m *partition.Manifest, async bool, prog Program) int64 {
	return vertexStateBytes(m, async, prog)
}

// EngineArrayBytes is what the per-vertex state of a run of prog under opts
// comes to, from the arrays themselves: every numeric slice and vertex set the
// engine and its schedule hold once run has loaded the degree table — found by
// walking their fields, so that an array either gains is counted without being
// named here — plus the degree file run reads the table from and the outputs
// result allocates.
func EngineArrayBytes(layout *partition.Layout, prog Program, opts Options) (int64, error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return 0, err
	}
	s, err := e.newSchedule()
	if err != nil {
		return 0, err
	}
	if e.degrees, err = layout.LoadDegrees(); err != nil {
		return 0, err
	}
	n := int64(e.n)
	return arrayBytes(reflect.ValueOf(e).Elem()) + arrayBytes(reflect.ValueOf(s).Elem()) + 4*n + 8*n, nil
}

// arrayBytes sums the numeric slices (by capacity) and vertex sets of struct v.
func arrayBytes(v reflect.Value) int64 {
	setType := reflect.TypeOf((*bitset.ActiveSet)(nil))
	var total int64
	for k := 0; k < v.NumField(); k++ {
		f := v.Field(k)
		switch {
		case f.Kind() == reflect.Slice:
			switch f.Type().Elem().Kind() {
			case reflect.Float64, reflect.Uint32, reflect.Uint64, reflect.Int:
				total += int64(f.Cap()) * int64(f.Type().Elem().Size())
			}
		case f.Type() == setType && !f.IsNil():
			set := reflect.NewAt(setType, unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*bitset.ActiveSet)
			total += int64(len(set.Words())) * 8
		}
	}
	return total
}

// RunCheckingTerms is RunContext that checks, at the start of every pass that
// begins with semBegin, that the terms the pass's scatters read from agree to
// the bit with fillTerms of valPrev over every live row. It returns the first
// disagreement it saw as stale ("" when none) and how many passes it checked.
func RunCheckingTerms(ctx context.Context, layout *partition.Layout, prog Program, opts Options) (res *Result, stale string, passes int, err error) {
	e, err := NewEngine(layout, prog, opts)
	if err != nil {
		return nil, "", 0, err
	}
	e.ctx = ctx
	want := make([]float64, e.n)
	e.semBegun = func() {
		passes++
		for i, live := range e.rowLive {
			if !live || stale != "" {
				continue
			}
			lo, hi := layout.Meta.Interval(i)
			e.fillTerms(want, e.valPrev, lo, hi)
			for v := lo; v < hi; v++ {
				if math.Float64bits(e.termPrev[v]) != math.Float64bits(want[v]) {
					stale = fmt.Sprintf("pass %d: term of vertex %d is %v, its value's term %v", passes, v, e.termPrev[v], want[v])
					break
				}
			}
		}
	}
	res, err = e.run()
	return res, stale, passes, err
}
