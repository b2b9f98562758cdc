// Asynchronous execution (Options.Async): a work-list engine for monotonic
// programs that replaces the BSP barrier with a priority order over the P
// source intervals of the sub-block grid.
//
// One scheduler step pops the interval i with the most pending mass per second
// of row I/O and processes its grid row atomically. A sweep freezes a frontier
// of interval i, snapshots the frozen vertices' live values, scatters them
// through sub-blocks of the row — each served from the per-run buffer when
// resident there, and otherwise streamed (inline as run views, or through the
// prefetch pipeline) or loaded selectively (per-vertex reads, when the
// frontier is sparse enough that the cost model prices them below streaming
// what is not resident) — applies the contributions immediately into the live
// values, and settles every frozen source with AsyncConsume. How many sweeps a step makes depends
// on the program's form (Monotonic.LabelCorrecting):
//
//   - A mass-residual program (PR-Delta) sweeps its row's whole frontier
//     through every cell of the row once. A source's residual is consumed only
//     after it has been pushed to every destination interval, so no
//     per-(vertex, column) pushed-mass matrix is needed.
//   - A label-correcting program (cc, bfs, sssp) first drains interval i
//     through the diagonal block, taken once and held (drain): a wide frozen
//     frontier is swept through it as a round, and from the first narrow one
//     the drain settles the rest of the interval in value order — Dijkstra's
//     rule, exact under a min fold over edges that never lower the value they
//     carry. The step then pushes every vertex the drain scattered, once, at
//     its final value, through the row's other cells on one fetch plan. A
//     wavefront thus crosses its own interval in one step instead of one hop
//     per step, on edges already in memory, and a vertex the wavefront reaches
//     along several paths is scattered once.
//
// No queue is maintained. At each step boundary every row is re-ranked from the
// live frontier (rank): its pending mass and key are recomputed, a row is
// queued while its mass is above zero, and a pop scans the P rows for the one
// ahead. The run converges when no row is queued or the total residual falls
// to Options.AsyncEpsilon.
//
// Determinism contract: for a fixed Options.AsyncSeed the pop sequence — and
// therefore every result bit — is reproducible. Row masses are always
// recomputed canonically (ascending vertex order over the live frontier), the
// order is total — key descending, then a seeded tie hash, then the row index
// — aging is a pure function of the persisted step counter, and checkpoints
// capture the step counter and per-row enqueue steps, the one thing a ranking
// cannot recompute, so a resumed run replays the identical schedule. A step's
// drain and push both finish inside the step, so nothing else crosses a step
// boundary. TestAsyncSchedulePinned holds the schedule across commits.
//
// Residency: the per-run buffer (Options.BufferBytes) keeps the blocks of the
// rows the scheduler ranks highest, in the form the codec gives it — verified
// payloads on a delta layout, which a sparse row takes as run views on the
// consumer, like its misses; decoded edges on a raw one — and a resident block's
// priority is its row's key (prioritize), so the buffer evicts what will pop
// last. The key itself never looks at the buffer: checkpoints do not
// carry it, a resumed run starts cold, and it has to pop the same rows in the
// same order. Residency changes which bytes move, never which row runs, how
// many rounds a drain makes, which vertices it pops or what they compute.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// asyncAgingEvery is the aging cadence: every asyncAgingEvery-th pop takes
// the longest-queued row instead of the highest-keyed one, so a cold,
// expensive, far-from-the-action row is processed at least once per
// asyncAgingEvery·P steps no matter how little mass it holds.
const asyncAgingEvery = 16

// asyncRow is one source interval's scheduling state. Only mass, key and enq
// carry from one step to the next; rank derives the first two afresh.
type asyncRow struct {
	mass float64 // canonical pending mass, Σ Residual over the row's frontier; 0 when not queued
	key  float64 // priority: mass per second of row I/O
	tie  uint64  // seeded tie-break hash, fixed per (seed, row)
	enq  int64   // step at which the row last entered the queue (aging)
}

// asyncTie is a splitmix64-style hash of (seed, row); equal-mass rows pop
// in hash order so different seeds explore different (but each fully
// reproducible) schedules.
func asyncTie(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// asyncRun is the asynchronous schedule (see schedule.go): each step of
// Engine.run's loop pops one row and processes it.
type asyncRun struct {
	e    *Engine
	mono Monotonic
	// drains is the program's Monotonic.LabelCorrecting: a step drains its
	// row's own interval before it pushes across.
	drains bool

	rows []asyncRow

	// rowBlocks lists each row's non-empty cells and rowStreamCost prices
	// streaming all of them (blockCost each: seek + sequential read), the
	// denominator of the priority key — which is static: what is resident
	// never moves it. For a draining program diag[i] is row i's diagonal cell
	// (a slice of rowBlocks[i], nil when the cell is empty) and cross[i] the
	// row's other cells, in column order.
	rowBlocks     [][]buffer.Key
	rowStreamCost []time.Duration
	diag, cross   [][]buffer.Key

	// frontier is the frozen frontier of the sweep in progress (the scatter
	// filter) and frontList its ascending vertex list. pushed collects every
	// vertex a drain froze, the push's frontier. consumed marks vertices
	// settled at least once, for reactivation counting.
	frontier  *bitset.ActiveSet
	frontList []int
	pushed    *bitset.ActiveSet
	consumed  *bitset.ActiveSet

	// selBlock is the selective path's reusable block, and selective says
	// some sweep of the step in progress read selectively.
	selBlock  selectiveBlock
	selective bool

	// order is the value-order phase's heap, diagOff the held diagonal's run
	// offsets and diagEdges its edges placed in source order when the block
	// holds them in another (indexRuns); every drain reuses them.
	// popsPerFrozen is what the last value-order phase popped per vertex it
	// froze, the next phase's estimate (+Inf before any: decode whole).
	order         valueHeap
	diagEdges     []graph.Edge
	diagOff       []int
	popsPerFrozen float64

	blocks   int64 // sub-block sweeps: cells scattered, once per round and value-order phase for a drain's diagonal
	reacts   int64 // consumed vertices re-entering the frontier
	rounds   int64 // sweeps of a row's own interval
	pops     int64 // vertices value-order phases popped
	selSteps int   // steps that took the selective path
}

// newAsyncRun builds the schedule's static state: the rows, their non-empty
// columns and what streaming each row costs.
func newAsyncRun(e *Engine) (*asyncRun, error) {
	mono, ok := e.prog.(Monotonic)
	if !ok {
		return nil, fmt.Errorf("core: program %s is not monotonic; -async needs label-correcting or residual form (use prd instead of pr)", e.prog.Name())
	}
	a := &asyncRun{
		e:             e,
		mono:          mono,
		drains:        mono.LabelCorrecting(),
		rows:          make([]asyncRow, e.p),
		rowBlocks:     make([][]buffer.Key, e.p),
		rowStreamCost: make([]time.Duration, e.p),
		diag:          make([][]buffer.Key, e.p),
		cross:         make([][]buffer.Key, e.p),
		frontier:      bitset.NewActiveSet(e.n),
		pushed:        bitset.NewActiveSet(e.n),
		consumed:      bitset.NewActiveSet(e.n),
		popsPerFrozen: math.Inf(1),
	}
	e.applySpan = a.applySpan
	for i := 0; i < e.p; i++ {
		a.rows[i].tie = asyncTie(e.opts.AsyncSeed, i)
		diag := -1
		for j := 0; j < e.p; j++ {
			if e.layout.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			k := buffer.Key{I: i, J: j}
			if j == i {
				diag = len(a.rowBlocks[i])
			} else if a.drains {
				a.cross[i] = append(a.cross[i], k)
			}
			a.rowBlocks[i] = append(a.rowBlocks[i], k)
			a.rowStreamCost[i] += a.blockCost(i, j)
		}
		if a.drains && diag >= 0 {
			a.diag[i] = a.rowBlocks[i][diag : diag+1]
		}
	}
	return a, nil
}

// start ranks the rows from the live frontier — and, after a resume, takes
// the ever-consumed set and every row's enqueue step from the checkpoint: the
// ranking itself is never saved, every row's mass is recomputed canonically,
// reproducing identical keys.
func (a *asyncRun) start(ck *checkpoint.State, maxIter int) (int, error) {
	e := a.e
	if ck != nil {
		if len(ck.EnqueueSteps) != e.p {
			return 0, fmt.Errorf("core: checkpoint enqueue steps sized %d, want P=%d", len(ck.EnqueueSteps), e.p)
		}
		if err := a.consumed.LoadWords(ck.Consumed); err != nil {
			return 0, fmt.Errorf("core: checkpoint consumed set: %w", err)
		}
	}
	a.rank(0)
	if ck != nil {
		for i := range a.rows {
			a.rows[i].enq = int64(ck.EnqueueSteps[i])
		}
	}
	// One BSP iteration touches up to P live rows, so the equivalent async
	// step budget is maxIter rows per interval.
	return maxIter * e.p, nil
}

// pending: the total residual is still above Options.AsyncEpsilon, and
// above zero, so some row is queued.
func (a *asyncRun) pending() bool {
	return a.totalResidual() > max(a.e.opts.AsyncEpsilon, 0)
}

func (a *asyncRun) step(n int, st *IterStat) error {
	blocksBefore, reactsBefore := a.blocks, a.reacts
	var err error
	st.Path, err = a.processRow(a.popRow(int64(n)), int64(n))
	st.Blocks = int(a.blocks - blocksBefore)
	st.Reactivations = a.reacts - reactsBefore
	st.Residual = a.totalResidual()
	return err
}

func (a *asyncRun) measured(*IterStat) {}

// capture adds the ever-consumed set and every row's enqueue step. The
// staged arrays the loop captures are at identity/empty here: this schedule
// never stages anything across a step boundary.
func (a *asyncRun) capture(ck *checkpoint.State) {
	ck.Async = true
	ck.EnqueueSteps = make([]uint64, len(a.rows))
	for i := range a.rows {
		ck.EnqueueSteps[i] = uint64(a.rows[i].enq)
	}
	ck.Consumed = a.consumed.Words()
}

func (a *asyncRun) finish(res *Result) {
	res.Async = AsyncStats{
		Enabled:         true,
		Steps:           res.Iterations,
		SelectiveSteps:  a.selSteps,
		Rounds:          a.rounds,
		Popped:          a.pops,
		BlocksScheduled: a.blocks,
		Reactivations:   a.reacts,
		FinalResidual:   a.totalResidual(),
	}
}

// totalResidual sums the canonical pending mass over all rows (queued rows
// hold the only non-zero masses).
func (a *asyncRun) totalResidual() float64 {
	var t float64
	for i := range a.rows {
		t += a.rows[i].mass
	}
	return t
}

// rowMass recomputes row i's pending mass canonically: ascending vertex
// order over the live frontier, so the same engine state always produces
// the identical float — the bedrock of deterministic replay and resume. A
// label-correcting program's residual is 1 a vertex, and the count is that
// ascending sum of ones, bit for bit.
func (a *asyncRun) rowMass(i int) float64 {
	e := a.e
	lo, hi := e.layout.Meta.Interval(i)
	if a.drains {
		return float64(e.active.CountRange(lo, hi))
	}
	var mass float64
	e.active.ForEachRange(lo, hi, func(v int) bool {
		mass += a.mono.Residual(graph.VertexID(v), e.valPrev[v], e.aux)
		return true
	})
	return mass
}

// rank re-ranks every row from the live frontier: its mass and key afresh,
// and enq as the entry step of a row that was not queued and now is. A row
// is queued while its mass is above zero. Every resident block then takes
// its row's priority.
func (a *asyncRun) rank(enq int64) {
	for i := range a.rows {
		r := &a.rows[i]
		mass := a.rowMass(i)
		if !(mass > 0) {
			r.mass = 0
			continue
		}
		if r.mass == 0 {
			r.enq = enq
		}
		r.mass = mass
		costSec := a.rowStreamCost[i].Seconds()
		if costSec <= 0 {
			// A row with no on-disk blocks is free to process; schedule it
			// first so its (edge-less) frontier settles immediately.
			costSec = 1e-12
		}
		r.key = mass / costSec
	}
	a.prioritize(-1)
}

// popRow takes the next row to process off the queue and returns its index:
// normally the row ahead in the total order key descending, then tie hash,
// then row index; but every asyncAgingEvery-th step the longest-queued row
// (lowest enq, then index), so low-mass rows are never starved. Aging depends
// only on the persisted step counter. The popped row's mass is zeroed, so a
// row still pending after its step re-enters the queue then.
func (a *asyncRun) popRow(step int64) int {
	aging := (step+1)%asyncAgingEvery == 0
	best := -1
	for i := range a.rows {
		if r := &a.rows[i]; r.mass > 0 && (best < 0 || r.ahead(&a.rows[best], aging)) {
			best = i
		}
	}
	a.rows[best].mass = 0
	return best
}

// ahead reports whether queued row r pops before queued row b, which has the
// lower index.
func (r *asyncRow) ahead(b *asyncRow, aging bool) bool {
	if aging {
		return r.enq < b.enq
	}
	return r.key > b.key || r.key == b.key && r.tie < b.tie
}

// processRow runs scheduler step `step` on row i, returning the executed path
// ("async" streamed, "async-sel" when any sweep of the step read selectively).
// See the package comment for the step's sweeps and why the row is processed
// atomically.
func (a *asyncRun) processRow(i int, step int64) (string, error) {
	e := a.e
	lo, hi := e.layout.Meta.Interval(i)
	defer a.frontier.ClearRange(lo, hi)
	a.selective = false

	// The row in hand outranks every queued one: what it already holds in the
	// buffer, and what it is about to offer, cannot be evicted by its own
	// later cells.
	a.prioritize(i)

	var applied int64
	var err error
	if a.drains {
		applied, err = a.drainAndPush(i)
	} else {
		a.freeze(e.active, lo, hi)
		a.rounds++
		applied, err = a.sweep(i, a.rowBlocks[i])
		if err == nil {
			a.settle()
		}
	}
	path := "async"
	if a.selective {
		path = "async-sel"
		a.selSteps++
	}
	if err != nil {
		return path, err
	}

	// Per-step value traffic: the frozen interval's values stream in once and
	// stay in memory for every sweep of the step, as an FCIU pass loads an
	// interval once; every apply writes its destinations back. A BSP pass pays
	// by interval too — its live rows and the intervals its apply visits, each
	// whole (semEnd) — and runs every live row at once, where a step runs one
	// and writes back only the vertices it applied.
	e.layout.Dev.Charge(storage.SeqRead, int64(hi-lo)*graph.VertexValueBytes)
	if applied > 0 {
		e.layout.Dev.Charge(storage.SeqWrite, applied*graph.VertexValueBytes)
	}

	a.rank(step + 1)
	return path, nil
}

// freeze makes the vertices of set in [lo, hi) the frozen frontier and
// snapshots their live values: every cell a sweep scatters sees the identical
// inputs even though applies mutate the live values mid-sweep (the diagonal
// cell feeds back into this very interval). The frozen set is also the
// scatter filter — e.active changes under the applies and must not filter
// the scatter. It returns how many vertices it froze.
func (a *asyncRun) freeze(set *bitset.ActiveSet, lo, hi int) int {
	e := a.e
	a.frontList = a.frontList[:0]
	a.frontier.ClearRange(lo, hi)
	set.ForEachRange(lo, hi, func(v int) bool {
		a.frontList = append(a.frontList, v)
		a.frontier.Activate(v)
		e.valCur[v] = e.valPrev[v]
		return true
	})
	e.fillTerms(e.termCur, e.valCur, lo, hi)
	return len(a.frontList)
}

// settle settles the frozen sources in ascending order: each one's snapshot
// has now been pushed along every out-edge the sweep covered, so consume it,
// keep the vertex active only if mass arrived underneath the scatter, and
// mark it pushed (a drain's push frontier).
func (a *asyncRun) settle() {
	e := a.e
	t0 := time.Now()
	for _, v := range a.frontList {
		nv, act := a.mono.AsyncConsume(graph.VertexID(v), e.valCur[v], e.valPrev[v], e.aux, e.n)
		e.valPrev[v] = nv
		if !act {
			e.active.Deactivate(v)
		}
		a.consumed.Activate(v)
		a.pushed.Activate(v)
	}
	e.computeTime += time.Since(t0)
}

// drainAndPush is a label-correcting program's step on row i. The drain
// settles interval i through the diagonal cell, in rounds and then in value
// order, until the interval has no active vertex (drain bounds it for a
// program that breaks its contract); the push then scatters every vertex the
// drain scattered, at its final value, through the row's other cells. A min
// fold makes the push exact: a vertex scattered in several rounds sends only
// its last, smallest value across, which is all the earlier ones would have
// delivered. It returns the number of vertices applied.
func (a *asyncRun) drainAndPush(i int) (int64, error) {
	e := a.e
	lo, hi := e.layout.Meta.Interval(i)
	a.pushed.ClearRange(lo, hi)
	applied, err := a.drain(i)
	if err != nil {
		return applied, err
	}
	a.freeze(a.pushed, lo, hi)
	n, err := a.sweep(i, a.cross[i])
	return applied + n, err
}

// drain settles row i's own interval and returns the vertices it applied. Its
// first round takes the diagonal block, held to the end. A round whose frozen
// frontier is narrow — at most one vertex in sparseViewDensity of the interval
// — is the last: settleInOrder settles the rest of the interval in value order.
// A wider one is swept through the held block, where a heap would cost more
// than a few re-scatters. The rule reads the values alone, never residency.
//
// No edge lowers the value it carries (Monotonic.LabelCorrecting), so a drain
// never freezes a value below its first round's least — its floor — and a path
// that improves a label has fewer edges than the interval has vertices: the
// drain ends on an empty frontier within that many rounds. A negative cycle —
// an SSSP weight below zero — would lower its labels on every round. The drain
// stops at the first round that freezes a value below the floor, or else after
// as many rounds as the interval has vertices, and leaves what is still active
// to a later step; the run's step bound then ends the run, as it ends a BSP
// run over the same cycle.
func (a *asyncRun) drain(i int) (applied int64, err error) {
	e := a.e
	lo, hi := e.layout.Meta.Interval(i)
	cell := a.diag[i]
	var held block
	var st *blockStream[block]
	defer func() {
		if st != nil {
			e.src.release(held)
			e.endFetch(st)
		}
	}()
	var floor float64
	for round := 0; round < hi-lo && a.freeze(e.active, lo, hi) > 0; round++ {
		if err := e.checkCtx(); err != nil {
			return applied, err
		}
		low := math.Inf(1)
		for _, v := range a.frontList {
			low = min(low, e.valCur[v])
		}
		if round == 0 {
			floor = low
		} else if low < floor {
			break
		}
		a.rounds++
		if cell != nil {
			if st == nil {
				st = e.openFetch(len(a.frontList), hi-lo, rowViewDensity, true, cell)
				if held, err = e.takeBuffered(st, cell[0], topPriority); err != nil {
					return applied, err
				}
			}
			if len(a.frontList)*sparseViewDensity <= hi-lo {
				n, err := a.settleInOrder(i, held, floor)
				return applied + n, err
			}
			n, err := a.scatterApply(held, i, i)
			if applied += n; err != nil {
				return applied, err
			}
		}
		a.settle()
	}
	return applied, nil
}

// settleInOrder settles the rest of interval i in value order, from the
// frontier of the drain's narrow round: it pops the active vertex of least
// live value and scatters its diagonal run once (relax). A min fold and edges
// that never lower the value they carry (Monotonic.LabelCorrecting) make the
// least active value final, so no vertex pops twice — Dijkstra's rule. A pop
// below floor, or of a vertex already popped, means an edge broke that rule:
// the drain stops there and leaves what is still active to a later step, as a
// round does. The phase counts as one round and one block scheduled, and
// returns the vertices it applied.
//
// The runs come from held, the diagonal block the drain holds: laid out by
// source (indexRuns), or, from a run view whose phase is estimated to pop at
// most one vertex in rowViewDensity of the interval (popsPerFrozen times its
// frozen frontier) — where a row's run views beat decoding its blocks whole —
// each popped source's run decoded as it pops, counted as compute: timing
// each run would cost more than decoding it. The choice moves no pop.
func (a *asyncRun) settleInOrder(i int, held block, floor float64) (int64, error) {
	e := a.e
	lo, hi := e.layout.Meta.Interval(i)
	a.blocks++
	frozen := len(a.frontList)
	view := held.runs
	var runs []graph.Edge
	if view == nil || a.popsPerFrozen*float64(frozen*rowViewDensity) > float64(hi-lo) {
		view = nil
		var err error
		if runs, err = a.indexRuns(held, lo, hi); err != nil {
			return 0, err
		}
	}

	// The frozen frontier seeds the heap; from here on the frontier set marks
	// the vertices popped.
	h := a.order[:0]
	for _, v := range a.frontList {
		h.push(valueEntry{e.valPrev[v], uint32(v)})
	}
	a.frontier.ClearRange(lo, hi)
	var applied int64
	pops := 0
	t0 := time.Now()
	for len(h) > 0 {
		top := h.pop()
		v, s := int(top.v), top.val
		if math.Float64bits(s) != math.Float64bits(e.valPrev[v]) || !e.active.Contains(v) {
			continue // stale: improved since it was pushed, or settled
		}
		if s < floor || a.frontier.Contains(v) {
			break
		}
		if pops%1024 == 0 {
			if err := e.checkCtx(); err != nil {
				return applied, err
			}
		}
		pops++
		a.frontier.Activate(v)
		if e.popped != nil {
			e.popped(v)
		}
		var run []graph.Edge
		if view == nil {
			run = runs[a.diagOff[v-lo]:a.diagOff[v-lo+1]]
		} else {
			var err error
			e.runEdges, err = view.view.AppendSource(e.runEdges[:0], graph.VertexID(v))
			if err != nil {
				return applied, fmt.Errorf("core: decoding sub-block (%d,%d) [delta]: %w", i, i, err)
			}
			run = e.runEdges
		}
		applied += a.relax(v, s, run, &h)
	}
	a.order = h[:0]
	a.pops += int64(pops)
	a.popsPerFrozen = float64(pops) / float64(frozen)
	e.computeTime += time.Since(t0)
	if e.phaseEnded != nil {
		e.phaseEnded(a)
	}
	return applied, nil
}

// relax scatters popped vertex v's diagonal run from its value s — the
// candidate each edge carries, through the program's kernel — applies every
// destination the candidate strictly improves (the contract makes any other
// AsyncApply a no-op), pushes each one it activates onto h, and then settles
// v. It returns the vertices it applied.
func (a *asyncRun) relax(v int, s float64, run []graph.Edge, h *valueHeap) (applied int64) {
	e := a.e
	id := e.prog.Identity()
	for _, ed := range run {
		var c float64
		switch e.kernel {
		case KernelMinCopy:
			c = s
		case KernelMinPlusOne:
			c = s + 1
		case KernelMinPlusWeight:
			c = s + float64(ed.Weight)
		default:
			c = e.prog.Merge(id, e.prog.Gather(s, ed, e.degrees[v]))
		}
		d := int(ed.Dst)
		if !(c < e.valPrev[d]) {
			continue
		}
		nv, act := a.mono.AsyncApply(graph.VertexID(d), e.valPrev[d], c, e.aux, e.n)
		e.valPrev[d] = nv
		applied++
		if act {
			if e.active.Activate(d) && a.consumed.Contains(d) {
				a.reacts++
			}
			h.push(valueEntry{nv, uint32(d)})
		}
	}
	nv, act := a.mono.AsyncConsume(graph.VertexID(v), s, e.valPrev[v], e.aux, e.n)
	e.valPrev[v] = nv
	if !act {
		e.active.Deactivate(v)
	}
	a.consumed.Activate(v)
	a.pushed.Activate(v)
	return applied
}

// indexRuns lays held, the diagonal block of [lo, hi), out by source for
// settleInOrder and returns its edges: decoded whole — from a run view, into
// the engine's scratch slice — and counted per source, so that source v's run
// is edges[diagOff[v-lo]:diagOff[v-lo+1]]. Edges already in source order, as
// every layout writes them, are used where they lie; any other order is placed
// in source order into diagEdges, each source's edges in block order.
func (a *asyncRun) indexRuns(held block, lo, hi int) ([]graph.Edge, error) {
	e := a.e
	edges := held.edges
	if rb := held.runs; rb != nil {
		t0 := time.Now()
		var err error
		e.runEdges, err = graph.AppendDeltaCell(e.runEdges[:0], rb.buf, e.layout.Meta.Cell(rb.i, rb.j), e.layout.Meta.Weighted)
		e.layout.AddDecodeTime(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("core: decoding sub-block (%d,%d) [delta]: %w", rb.i, rb.j, err)
		}
		edges = e.runEdges
	}
	// Source v's count lands at off[v-lo+2], so after the prefix sums
	// off[v-lo+1] is where its run starts and off[v-lo+2] where it ends.
	off := slices.Grow(a.diagOff[:0], hi-lo+2)[:hi-lo+2]
	a.diagOff = off
	clear(off)
	ordered := true
	for k, ed := range edges {
		off[int(ed.Src)-lo+2]++
		ordered = ordered && (k == 0 || edges[k-1].Src <= ed.Src)
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	if ordered {
		copy(off, off[1:])
		return edges, nil
	}
	// Placing source v's run moves off[v-lo+1] from its start to its end.
	placed := slices.Grow(a.diagEdges[:0], len(edges))[:len(edges)]
	for _, ed := range edges {
		k := int(ed.Src) - lo + 1
		placed[off[k]] = ed
		off[k]++
	}
	a.diagEdges = placed
	return placed, nil
}

// valueEntry is a vertex of a value-order phase's heap at the live value it
// held when pushed; it is stale once the vertex's live value moved or the
// vertex was settled.
type valueEntry struct {
	val float64
	v   uint32
}

// before orders entries by value, ties to the lower vertex.
func (x valueEntry) before(y valueEntry) bool {
	return x.val < y.val || x.val == y.val && x.v < y.v
}

// valueHeap is a binary min-heap of entries in before order.
type valueHeap []valueEntry

func (h *valueHeap) push(x valueEntry) {
	*h = append(*h, x)
	s := *h
	for k := len(s) - 1; k > 0; {
		p := (k - 1) / 2
		if !s[k].before(s[p]) {
			break
		}
		s[k], s[p] = s[p], s[k]
		k = p
	}
}

func (h *valueHeap) pop() valueEntry {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

func (h valueHeap) down(k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// prioritize hands every resident block its row's priority: the row in hand
// (inHand, -1 for none) outranks every queued row; a queued row ranks by an
// order-preserving image of its key (non-negative floats order as their bit
// patterns do), so the buffer gives up the blocks of the row that pops last;
// a row that is not queued ranks below them all.
func (a *asyncRun) prioritize(inHand int) {
	a.e.buf.Reprioritize(func(k buffer.Key, _ buffer.Block) int64 {
		switch r := &a.rows[k.I]; {
		case k.I == inHand:
			return math.MaxInt64
		case r.mass > 0:
			return int64(math.Float64bits(r.key))
		}
		return 0
	})
}

// blockCost prices streaming sub-block (i, j) whole.
func (a *asyncRun) blockCost(i, j int) time.Duration {
	return a.e.sched.BlockCost(a.e.layout.Meta.SubBlockDiskBytes(i, j))
}

// missCost prices streaming the cells that are not resident: what the
// streamed route would read. With nothing resident it is their stream cost.
func (a *asyncRun) missCost(cells []buffer.Key) time.Duration {
	var cost time.Duration
	for _, k := range cells {
		if !a.e.buf.Contains(k) {
			cost += a.blockCost(k.I, k.J)
		}
	}
	return cost
}

// selectiveRoute picks the load route of a sweep of row i's frozen frontier
// through cells: stream every cell that is not resident, or read the
// frontier's edges selectively through the per-vertex index. Resident blocks
// are scattered from memory either way, and cells all resident have no
// device path to choose. The value terms are identical either way, so the
// comparison is edges-only. Choosing the selective route charges the row's
// index, once per step (the index consultation is the per-interval slice of
// SCIU's 2|V| term).
func (a *asyncRun) selectiveRoute(i int, cells []buffer.Key) bool {
	e := a.e
	stream := a.missCost(cells)
	if stream <= 0 {
		return false
	}
	lo, hi := e.layout.Meta.Interval(i)
	seqB, ranB, seeks := e.sched.EstimateOnDemand(a.frontier, e.degrees)
	if e.sched.RowSelectiveCost(seqB, ranB, seeks, hi-lo) >= stream {
		return false
	}
	if !a.selective {
		a.selective = true
		e.layout.Dev.Charge(storage.SeqRead, int64(hi-lo)*graph.IndexEntryBytes)
	}
	return true
}

// topPriority admits the blocks of the row being processed (see processRow).
func topPriority([]graph.Edge) int64 { return math.MaxInt64 }

// sweep scatters the frozen frontier through row i's cells on the route
// selectiveRoute picks and applies each destination as its cell is done,
// returning the number of vertices applied. The selective route reads only the
// frozen frontier's edge runs through each sub-block's vertex index — the
// async analogue of SCIU's on-demand loads — synchronously: frontiers this
// sparse spend their time seeking, not streaming, and the frozen frontier
// keeps the reads deterministic. The streamed route takes the cells through
// the per-run buffer in the form the codec gives it, on FCIU's fetch plan
// (openFetch, takeBuffered): misses stream through the sweep's block stream
// and are offered at the row in hand's priority. Over viewable blocks and a
// frozen frontier of at most one in rowViewDensity, every cell, hit or miss,
// is a run view that decodes only that frontier's runs, on an inline stream.
func (a *asyncRun) sweep(i int, cells []buffer.Key) (int64, error) {
	e := a.e
	if len(a.frontList) == 0 || len(cells) == 0 {
		return 0, nil
	}
	if a.selectiveRoute(i, cells) {
		return a.scatterCells(cells, a.onDemandBlock)
	}
	lo, hi := e.layout.Meta.Interval(i)
	st := e.openFetch(len(a.frontList), hi-lo, rowViewDensity, true, cells)
	defer e.endFetch(st)
	return a.scatterCells(cells, func(k buffer.Key) (block, error) { return e.takeBuffered(st, k, topPriority) })
}

// scatterCells scatters and applies cells in column order, each taken from
// get once the previous one is applied and released, and returns the number
// of vertices applied.
func (a *asyncRun) scatterCells(cells []buffer.Key, get func(k buffer.Key) (block, error)) (int64, error) {
	var applied int64
	for _, k := range cells {
		if err := a.e.checkCtx(); err != nil {
			return applied, err
		}
		blk, err := get(k)
		if err == nil {
			var n int64
			n, err = a.scatterApply(blk, k.I, k.J)
			a.e.src.release(blk)
			applied += n
		}
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// onDemandBlock is cell k for the selective path: the resident block
// through a Peek, not a Get — the buffer's counters describe whole-block
// requests, and what this saves is a few runs of the block — or else the
// frozen frontier's runs, read into the memory one block at a time reuses.
func (a *asyncRun) onDemandBlock(k buffer.Key) (blk block, err error) {
	res, ok := a.e.buf.Peek(k)
	switch {
	case res.Payload != nil:
		return a.e.src.expand(k.I, k.J, res.Payload, a.e.viewable())
	case ok:
		return block{edges: res.Edges}, nil
	}
	a.selBlock, err = a.e.src.selective(k.I, k.J, a.frontier, a.selBlock)
	return block{edges: a.selBlock.edges}, err
}

// scatterApply scatters sub-block (i, j) from the frozen snapshot — from a
// run view, only the frozen frontier's runs — and immediately applies the
// touched destinations of interval j into the live values, returning the
// number of vertices applied. The caller still owns blk.
func (a *asyncRun) scatterApply(blk block, i, j int) (int64, error) {
	e := a.e
	a.blocks++
	if blk.empty() {
		return 0, nil
	}
	jLo, jHi := e.layout.Meta.Interval(j)
	if err := e.scatterBlock(blk, e.from(e.valCur, e.termCur, a.frontier, i), e.acc, e.touched, jLo, jHi); err != nil {
		return 0, err
	}

	// Fold interval j's touched accumulators into the live values with
	// AsyncApply (applySpan, under the shared apply frame): woken vertices
	// join the frontier, and those that had already been consumed count as
	// reactivations.
	count, out := e.applyInterval(j, false)
	e.active.AddCount(out.woken)
	a.reacts += int64(out.reacts)
	return int64(count), nil
}

// applySpan applies the touched vertices of [lo, hi) in ascending order. It
// leaves touched alone: the caller clears the whole interval.
func (a *asyncRun) applySpan(lo, hi int, _ bool) (out applied) {
	e := a.e
	id := e.prog.Identity()
	active, consumed := e.active.Words(), a.consumed.Words()
	e.touched.ForEachRange(lo, hi, func(v int) bool {
		nv, act := a.mono.AsyncApply(graph.VertexID(v), e.valPrev[v], e.acc[v], e.aux, e.n)
		e.valPrev[v] = nv
		if act && setBit(active, v) == 1 {
			out.woken++
			if hasBit(consumed, uint32(v)) {
				out.reacts++
			}
		}
		e.acc[v] = id
		return true
	})
	return out
}
