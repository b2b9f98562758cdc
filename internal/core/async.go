// Asynchronous execution (Options.Async): a work-list engine for
// label-correcting programs (Monotonic) that replaces the BSP barrier with a
// most-active-first order over the P source intervals of the sub-block grid.
//
// One scheduler step pops the interval i with the most active vertices and
// processes its grid row atomically. A sweep freezes a frontier of interval i,
// snapshots the frozen vertices' live values, scatters them through sub-blocks
// of the row — each served from the per-run buffer when resident there, and
// otherwise streamed, inline as run views or through the prefetch pipeline —
// applies the contributions immediately into the live values with the
// program's Apply, and settles every frozen source: it stays active only if
// its live value dropped below the one it scattered.
//
// A step first drains interval i through the diagonal block, taken once and
// held (drain): a wide frozen frontier is swept through it as a round, and
// from the first narrow one the drain settles the rest of the interval in
// value order — Dijkstra's rule, exact under a min fold over edges that never
// lower the value they carry. The step then pushes every vertex the drain
// scattered, once, at its final value, through the row's other cells on one
// fetch plan. A wavefront thus crosses its own interval in one step instead of
// one hop per step, on edges already in memory, and a vertex the wavefront
// reaches along several paths is scattered once.
//
// No queue is maintained. At each step boundary every row's active vertices
// are recounted from the live frontier (count), and a pop scans the P counts
// for the largest, ties to the lower row. The run converges when every count
// is zero.
//
// Determinism contract: the next row is a pure function of the frontier, so
// the pop sequence — and therefore every result bit — is reproducible, and a
// run resumed from a checkpoint, which carries the frontier, replays the
// identical schedule with no schedule state of its own. A step's drain and
// push both finish inside the step, so nothing else crosses a step boundary.
// TestAsyncSchedulePinned holds the schedule across commits.
//
// Residency: the per-run buffer (Options.BufferBytes) keeps the blocks of the
// rows with the most active vertices, in the form the codec gives it —
// verified payloads on a delta layout, which a sparse row takes as run views
// on the consumer, like its misses; decoded edges on a raw one — and a
// resident block's priority is its row's count (prioritize), so the buffer
// evicts what will pop last. The count itself never looks at the buffer: a
// resumed run starts cold, and it has to pop the same rows in the same order.
// Residency changes which bytes move, never which row runs, how many rounds a
// drain makes, which vertices it pops or what they compute.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// asyncRun is the asynchronous schedule (see schedule.go): each step of
// Engine.run's loop pops one row and processes it.
type asyncRun struct {
	e *Engine

	// active[i] is row i's active vertices at the last step boundary. diag[i]
	// is row i's diagonal cell (nil when the cell is empty) and cross[i] the
	// row's other non-empty cells, in column order.
	active      []int
	diag, cross [][]buffer.Key

	// frontier is the frozen frontier of the sweep in progress (the scatter
	// filter) and frontList its ascending vertex list. pushed collects every
	// vertex a drain froze, the push's frontier. consumed marks vertices
	// settled at least once, for reactivation counting.
	frontier  *bitset.ActiveSet
	frontList []int
	pushed    *bitset.ActiveSet
	consumed  *bitset.ActiveSet

	// order is the value-order phase's queue, diagOff the held diagonal's run
	// offsets and diagEdges its edges placed in source order when the block
	// holds them in another (indexRuns); every drain reuses them.
	// popsPerFrozen is what the last value-order phase popped per vertex it
	// froze, the next phase's estimate (+Inf before any: decode whole).
	order         valueQueue
	diagEdges     []graph.Edge
	diagOff       []int
	popsPerFrozen float64

	blocks int64 // sub-block sweeps: cells scattered, once per round and value-order phase for a drain's diagonal
	reacts int64 // consumed vertices re-entering the frontier
	rounds int64 // sweeps of a row's own interval
	pops   int64 // vertices value-order phases popped
}

// newAsyncRun builds the schedule's static state: every row's non-empty
// cells.
func newAsyncRun(e *Engine) (*asyncRun, error) {
	if _, ok := e.prog.(Monotonic); !ok {
		return nil, fmt.Errorf("core: program %s is not label-correcting; -async runs cc, sssp and bfs only, run it without -async", e.prog.Name())
	}
	a := &asyncRun{
		e:             e,
		active:        make([]int, e.p),
		diag:          make([][]buffer.Key, e.p),
		cross:         make([][]buffer.Key, e.p),
		frontier:      bitset.NewActiveSet(e.n),
		pushed:        bitset.NewActiveSet(e.n),
		consumed:      bitset.NewActiveSet(e.n),
		popsPerFrozen: math.Inf(1),
	}
	e.applySpan = a.applySpan
	for i := 0; i < e.p; i++ {
		for j := 0; j < e.p; j++ {
			if e.layout.Meta.SubBlockEdges(i, j) == 0 {
				continue
			}
			k := buffer.Key{I: i, J: j}
			if j == i {
				a.diag[i] = []buffer.Key{k}
			} else {
				a.cross[i] = append(a.cross[i], k)
			}
		}
	}
	return a, nil
}

// start counts the rows from the live frontier — and, after a resume, takes
// the ever-consumed set from the checkpoint: the counts are never saved, as
// the frontier they are counted from is.
func (a *asyncRun) start(ck *checkpoint.State, maxIter int) (int, error) {
	e := a.e
	if ck != nil {
		if err := a.consumed.LoadWords(ck.Consumed); err != nil {
			return 0, fmt.Errorf("core: checkpoint consumed set: %w", err)
		}
	}
	a.count()
	// One BSP iteration touches up to P live rows, so the equivalent async
	// step budget is maxIter rows per interval.
	return maxIter * e.p, nil
}

// pending: some row has an active vertex.
func (a *asyncRun) pending() bool {
	return a.totalActive() > 0
}

func (a *asyncRun) step(_ int, st *IterStat) error {
	blocksBefore, reactsBefore := a.blocks, a.reacts
	st.Path = "async"
	i := a.popRow()
	if a.e.rowPopped != nil {
		a.e.rowPopped(i)
	}
	err := a.processRow(i)
	st.Blocks = int(a.blocks - blocksBefore)
	st.Reactivations = a.reacts - reactsBefore
	st.ActiveAfter = a.totalActive()
	return err
}

func (a *asyncRun) measured(*IterStat) {}

// capture adds the ever-consumed set. The staged arrays the loop captures are
// at identity/empty here: this schedule never stages anything across a step
// boundary.
func (a *asyncRun) capture(ck *checkpoint.State) {
	ck.Async = true
	ck.Consumed = a.consumed.Words()
}

func (a *asyncRun) finish(res *Result) {
	res.Async = AsyncStats{
		Enabled:         true,
		Steps:           res.Iterations,
		Rounds:          a.rounds,
		Popped:          a.pops,
		BlocksScheduled: a.blocks,
		Reactivations:   a.reacts,
		FinalActive:     a.totalActive(),
	}
}

// totalActive sums the rows' active vertices at the last step boundary.
func (a *asyncRun) totalActive() int {
	t := 0
	for _, c := range a.active {
		t += c
	}
	return t
}

// count recounts every row's active vertices from the live frontier, and
// every resident block then takes its row's count as its priority.
func (a *asyncRun) count() {
	for i := range a.active {
		lo, hi := a.e.layout.Meta.Interval(i)
		a.active[i] = a.e.active.CountRange(lo, hi)
	}
	a.prioritize(-1)
}

// popRow returns the row with the most active vertices, ties to the lower
// index. Some row has one (pending).
func (a *asyncRun) popRow() int {
	best := 0
	for i, c := range a.active {
		if c > a.active[best] {
			best = i
		}
	}
	return best
}

// processRow runs a scheduler step on row i. The drain settles interval i
// through the diagonal cell, in rounds and then in value order, until the
// interval has no active vertex (drain bounds it for a program that breaks its
// contract); the push then scatters every vertex the drain scattered, at its
// final value, through the row's other cells. A min fold makes the push exact:
// a vertex scattered in several rounds sends only its last, smallest value
// across, which is all the earlier ones would have delivered. See the package
// comment for why the row is processed atomically.
func (a *asyncRun) processRow(i int) error {
	e := a.e
	lo, hi := e.layout.Meta.Interval(i)
	defer a.frontier.ClearRange(lo, hi)

	// The row in hand outranks every other: what it already holds in the
	// buffer, and what it is about to offer, cannot be evicted by its own
	// later cells.
	a.prioritize(i)

	a.pushed.ClearRange(lo, hi)
	applied, err := a.drain(i)
	if err == nil {
		a.freeze(a.pushed, lo, hi)
		var pushed int64
		pushed, err = a.sweep(i, a.cross[i])
		applied += pushed
	}
	if err != nil {
		return err
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

	a.count()
	return nil
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
// has now been pushed along every out-edge the sweep covered, so keep the
// vertex active only if its label improved underneath the scatter, and mark it
// pushed (a drain's push frontier).
func (a *asyncRun) settle() {
	e := a.e
	t0 := time.Now()
	for _, v := range a.frontList {
		if !(e.valPrev[v] < e.valCur[v]) {
			e.active.Deactivate(v)
		}
		a.consumed.Activate(v)
		a.pushed.Activate(v)
	}
	e.computeTime += time.Since(t0)
}

// drain settles row i's own interval and returns the vertices it applied. Its
// first round takes the diagonal block, held to the end. A round whose frozen
// frontier is narrow — at most one vertex in sparseViewDensity of the interval
// — is the last: settleInOrder settles the rest of the interval in value order.
// A wider one is swept through the held block, where value order would cost
// more than a few re-scatters. The rule reads the values alone, never
// residency.
//
// No edge lowers the value it carries (Monotonic), so a drain never freezes a
// value below its first round's least — its floor — and a path that improves a
// label has fewer edges than the interval has vertices: the drain ends on an
// empty frontier within that many rounds. A negative cycle —
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
// that never lower the value they carry (Monotonic) make the least active
// value final, so no vertex pops twice — Dijkstra's rule. A pop
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

	// The frozen frontier seeds the queue; from here on the frontier set marks
	// the vertices popped.
	q := &a.order
	q.reset(frozen+int(e.layout.Meta.SubBlockEdges(i, i)), hi-lo)
	for _, v := range a.frontList {
		q.push(e.valPrev[v], uint32(v))
	}
	a.frontier.ClearRange(lo, hi)
	var applied int64
	pops := 0
	t0 := time.Now()
	for {
		top, ok := q.pop()
		if !ok {
			break
		}
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
		applied += a.relax(v, s, run, q)
	}
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
// Apply a no-op), pushes each one it activates onto q, and then settles v. It
// returns the vertices it applied.
func (a *asyncRun) relax(v int, s float64, run []graph.Edge, q *valueQueue) (applied int64) {
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
		nv, act := e.prog.Apply(graph.VertexID(d), e.valPrev[d], c, e.aux, e.n)
		e.valPrev[d] = nv
		applied++
		if act {
			if e.active.Activate(d) && a.consumed.Contains(d) {
				a.reacts++
			}
			q.push(nv, uint32(d))
		}
	}
	if !(e.valPrev[v] < s) {
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

// valueEntry is a vertex of a value-order phase's queue at the live value it
// held when pushed; it is stale once the vertex's live value moved or the
// vertex was settled. next threads it into its bucket (valueQueue).
type valueEntry struct {
	val  float64
	v    uint32
	next uint32
}

// noEntry ends a bucket's list.
const noEntry = ^uint32(0)

// valueQueue is a value-order phase's monotone radix queue (Ahuja, Mehlhorn,
// Orlin and Tarjan, 1990): it pops entries least value first, ties to the
// lower vertex — exactly a binary heap's order over (value, vertex) — without
// comparing values. An entry's key is its value's order-preserving bits, -0
// folded to +0. Every entry pushed in a phase lies in arena, threaded into one
// of three places:
//   - bucket b holds entries whose key first differs from last's, the last
//     pop's, at bit b, listed from head[b], least key least[b]; mask marks the
//     non-empty ones. When ties and below are empty, pop refills from the
//     lowest: its least key becomes last and its entries move to lower
//     buckets;
//   - ties holds the entries whose key is last, as a min-heap of vertex<<32 |
//     arena index, so they pop by lower vertex;
//   - below lists entries pushed below last, which only an edge that lowers
//     the value it carries makes: they pop first, least first, by a scan.
//
// arena and ties grow up to the most a phase can hold of each, pushes and
// vertices (grow), so their capacities stay within drainBytes.
type valueQueue struct {
	arena    []valueEntry
	head     [64]uint32
	least    [64]uint64
	mask     uint64
	ties     []uint64
	below    uint32
	last     uint64
	pushes   int
	vertices int
}

// orderKey maps a value to bits that order like it, -0 and +0 alike.
func orderKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// reset empties the queue for a phase of at most pushes pushes over an
// interval of the given vertices, keeping its memory.
func (q *valueQueue) reset(pushes, vertices int) {
	q.arena, q.ties = q.arena[:0], q.ties[:0]
	q.pushes, q.vertices = pushes, vertices
	q.mask, q.below, q.last = 0, noEntry, 0
	for b := range q.head {
		q.head[b], q.least[b] = noEntry, math.MaxUint64
	}
}

// push adds vertex v at value val.
func (q *valueQueue) push(val float64, v uint32) {
	k := uint32(len(q.arena))
	if int(k) == cap(q.arena) {
		q.arena = grow(q.arena, q.pushes)
	}
	q.arena = append(q.arena, valueEntry{val: val, v: v})
	switch key := orderKey(val); {
	case key == q.last:
		q.pushTie(uint64(v)<<32 | uint64(k))
	case key < q.last:
		q.arena[k].next, q.below = q.below, k
	default:
		q.file(k, key)
	}
}

// file links arena entry k, of a key above last, into its bucket.
func (q *valueQueue) file(k uint32, key uint64) {
	b := bits.Len64(key^q.last) - 1
	q.arena[k].next, q.head[b] = q.head[b], k
	q.least[b] = min(q.least[b], key)
	q.mask |= 1 << b
}

// pop removes and returns the least entry; ok is false on an empty queue.
func (q *valueQueue) pop() (e valueEntry, ok bool) {
	if q.below != noEntry {
		return q.popBelow(), true
	}
	if len(q.ties) == 0 {
		if q.mask == 0 {
			return e, false
		}
		q.refill()
	}
	return q.arena[uint32(q.popTie())], true
}

// popBelow unlinks and returns below's least entry.
func (q *valueQueue) popBelow() valueEntry {
	best, bestPrev := q.below, noEntry
	for prev, k := q.below, q.arena[q.below].next; k != noEntry; prev, k = k, q.arena[k].next {
		x, y := q.arena[k], q.arena[best]
		if kx, ky := orderKey(x.val), orderKey(y.val); kx < ky || kx == ky && x.v < y.v {
			best, bestPrev = k, prev
		}
	}
	if bestPrev == noEntry {
		q.below = q.arena[best].next
	} else {
		q.arena[bestPrev].next = q.arena[best].next
	}
	return q.arena[best]
}

// refill empties the lowest non-empty bucket: its least key becomes last, and
// every entry moves to a lower bucket or, at that key, to ties.
func (q *valueQueue) refill() {
	b := bits.TrailingZeros64(q.mask)
	k := q.head[b]
	q.last = q.least[b]
	q.mask &^= 1 << b
	q.head[b], q.least[b] = noEntry, math.MaxUint64
	for k != noEntry {
		x := &q.arena[k]
		next := x.next
		if key := orderKey(x.val); key == q.last {
			q.pushTie(uint64(x.v)<<32 | uint64(k))
		} else {
			q.file(k, key)
		}
		k = next
	}
}

// pushTie and popTie keep ties a binary min-heap.
func (q *valueQueue) pushTie(x uint64) {
	if len(q.ties) == cap(q.ties) {
		q.ties = grow(q.ties, q.vertices)
	}
	q.ties = append(q.ties, x)
	h := q.ties
	for k := len(h) - 1; k > 0; {
		p := (k - 1) / 2
		if h[p] <= h[k] {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func (q *valueQueue) popTie() uint64 {
	h := q.ties
	if len(h) == 1 {
		q.ties = h[:0]
		return h[0]
	}
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	q.ties = h
	for k := 0; ; {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[k] <= h[c] {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	return top
}

// grow returns full slice s with room for more: its capacity doubled, but
// never past limit unless s already holds that many.
func grow[E any](s []E, limit int) []E {
	n := max(2*cap(s), 64)
	if len(s) < limit {
		n = min(n, limit)
	}
	return append(make([]E, 0, n), s...)
}

// prioritize hands every resident block its row's priority: the row in hand
// (inHand, -1 for none) outranks every other, and the rest rank by their
// active vertices, so the buffer gives up the blocks of the row that pops last.
func (a *asyncRun) prioritize(inHand int) {
	a.e.buf.Reprioritize(func(k buffer.Key, _ buffer.Block) int64 {
		if k.I == inHand {
			return math.MaxInt64
		}
		return int64(a.active[k.I])
	})
}

// topPriority admits the blocks of the row being processed (see processRow).
func topPriority([]graph.Edge) int64 { return math.MaxInt64 }

// sweep scatters the frozen frontier through row i's cells in column order
// and applies each destination as its cell is done, returning the number of
// vertices applied. The cells come through the per-run buffer in the form the
// codec gives it, on FCIU's fetch plan (openFetch, takeBuffered): misses
// stream through the sweep's block stream and are offered at the row in
// hand's priority. Over viewable blocks and a frozen frontier of at most one
// in rowViewDensity, every cell, hit or miss, is a run view that decodes only
// that frontier's runs, on an inline stream.
func (a *asyncRun) sweep(i int, cells []buffer.Key) (int64, error) {
	e := a.e
	if len(a.frontList) == 0 || len(cells) == 0 {
		return 0, nil
	}
	lo, hi := e.layout.Meta.Interval(i)
	st := e.openFetch(len(a.frontList), hi-lo, rowViewDensity, true, cells)
	defer e.endFetch(st)
	var applied int64
	for _, k := range cells {
		if err := e.checkCtx(); err != nil {
			return applied, err
		}
		blk, err := e.takeBuffered(st, k, topPriority)
		if err == nil {
			var n int64
			n, err = a.scatterApply(blk, k.I, k.J)
			e.src.release(blk)
			applied += n
		}
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
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

	// Fold interval j's touched accumulators into the live values with Apply
	// (applySpan, under the shared apply frame): woken vertices
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
		nv, act := e.prog.Apply(graph.VertexID(v), e.valPrev[v], e.acc[v], e.aux, e.n)
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
