// Package core implements the GraphSD execution engine: the driver loop of
// the paper's Algorithm 1, the selective cross-iteration update model SCIU
// (Algorithm 2), the full cross-iteration update model FCIU (Algorithm 3),
// the state-aware I/O scheduling hookup, the sub-block buffering scheme, and
// the asynchronous row schedule that shares the engine's loop and buffer.
//
// # Programming model
//
// Algorithms are expressed as vertex programs in a gather/merge/apply form
// that factors the paper's two user hooks: UserFunction corresponds to
// Gather+Merge applied with the source's current-iteration value, and
// CrossIterUpdate corresponds to the same pair applied with the source's
// just-computed next value into the staged next-iteration accumulator. The
// engine guarantees Bulk Synchronous Parallel semantics: the values it
// produces after k iterations are identical (up to floating-point
// summation order) to a plain synchronous in-memory engine running k
// iterations — cross-iteration computation changes only when edges are
// read, never what is computed. RunReference provides that oracle.
package core

import (
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/graph"
)

// Program is a vertex program executed by the engine.
//
// One BSP iteration is: every active vertex u contributes
// Gather(value(u), e, outdeg(u)) along each out-edge e; contributions to
// the same destination are combined with Merge (which must be commutative
// and associative with identity Identity()); every touched destination —
// or every vertex, if AlwaysActive — then computes its next value with
// Apply. Apply reports whether the vertex becomes active in the next
// iteration.
//
// Gather and Merge are called through the interface once per edge. A
// program whose pair is one of the algebras named by the EdgeKernel
// constants may also implement
//
//	EdgeKernel() EdgeKernel
//
// and the engine then scatters with the loop written for that algebra,
// which performs the same floating-point operations in the same order
// without the calls (see kernel.go). The method is optional and changes no
// result: a program without it, or one declaring KernelGeneric, runs the
// Gather/Merge loop on every path.
type Program interface {
	// Name identifies the algorithm ("pagerank", "cc", ...).
	Name() string
	// Weighted reports whether the program reads edge weights.
	Weighted() bool
	// AlwaysActive reports that every vertex is active in every iteration
	// (plain PageRank). The engine then applies every vertex each iteration
	// and selective scheduling yields no benefit.
	AlwaysActive() bool
	// MaxIterations bounds the run: fixed iteration counts for PR-style
	// algorithms, a convergence cap for traversal algorithms.
	MaxIterations() int
	// HasAux reports whether the program keeps an auxiliary per-vertex
	// float64 (e.g. PR-Delta's accumulated rank next to its delta value).
	HasAux() bool
	// Init fills the initial vertex values (and aux, if HasAux) and
	// activates the initially-active vertices.
	Init(n int, values, aux []float64, active *bitset.ActiveSet)
	// Identity is the identity element of Merge.
	Identity() float64
	// Gather returns the contribution of edge e given the source's value
	// and out-degree.
	Gather(srcVal float64, e graph.Edge, srcOutDeg uint32) float64
	// Merge combines two contributions. Must be commutative, associative.
	Merge(a, b float64) float64
	// Apply computes v's new value from its old value and the merged
	// contribution (Identity() if none arrived), optionally updating aux.
	// It reports whether v is active in the next iteration.
	Apply(v graph.VertexID, old, merged float64, aux []float64, n int) (float64, bool)
	// Output maps a vertex's final (value, aux) state to the user-facing
	// result (e.g. PR-Delta reports the accumulated rank, not the delta).
	Output(v graph.VertexID, val float64, aux []float64) float64
}

// Monotonic is the optional capability a Program implements to run under
// the asynchronous engine (Options.Async). A monotonic program's state only
// ever moves toward the fixed point — labels only shrink under a min-Merge,
// or pending PageRank residual only drains into the rank — so sub-blocks may
// be processed in any order, any number of times, without a global barrier,
// and the fixed point reached is the same one BSP converges to.
//
// Under async execution the engine repeatedly picks the pending-mass-richest
// source interval, scatters the frozen frontier's values through its
// sub-blocks, applies contributions with AsyncApply, and then settles each
// scattered source with AsyncConsume. Residual is the scheduling signal: the
// run converges when the total residual over all active vertices falls to
// Options.AsyncEpsilon or the frontier drains.
type Monotonic interface {
	Program
	// Residual returns v's pending update mass — how much un-propagated
	// work the vertex still holds. Label-correcting programs return a
	// constant 1 per active vertex; PR-Delta returns |val| (the residual
	// itself). Must be non-negative and zero only when v has nothing left
	// to push. The engine never calls it for a LabelCorrecting program: it
	// counts the row's active vertices, which is the same sum bit for bit.
	Residual(v graph.VertexID, val float64, aux []float64) float64
	// AsyncApply folds the merged contribution into v's current value,
	// reporting v's new value and whether v became (or stays) active. It
	// differs from Apply in that cur is v's live value, not the previous
	// iteration's snapshot, and it must not finalize state that
	// AsyncConsume settles (PR-Delta accumulates into the residual here
	// and moves it to the rank only in AsyncConsume).
	AsyncApply(v graph.VertexID, cur, merged float64, aux []float64, n int) (float64, bool)
	// AsyncConsume settles a source vertex after the engine scattered
	// snapshot (the value the scatter actually used) along all of v's
	// out-edges: it returns v's post-consumption value and whether v
	// remains active. cur is v's live value, which may differ from
	// snapshot if contributions arrived mid-scatter — a min-program stays
	// active iff cur improved below snapshot; PR-Delta banks snapshot into
	// the rank and keeps only the mass that arrived since.
	AsyncConsume(v graph.VertexID, snapshot, cur float64, aux []float64, n int) (float64, bool)
	// LabelCorrecting says which of the two forms above the program takes.
	// True is the label-correcting form: Residual is 1 for every active
	// vertex, AsyncApply/AsyncConsume fold by min, so pushing a value again
	// changes nothing, and no edge carries a value below its source's (CC
	// copies labels, BFS and SSSP add non-negative lengths). A step drains its
	// row's own interval through the diagonal sub-block before it pushes
	// across. The last rule makes the least active value of an interval
	// final, so a drain may settle the interval in value order, scattering
	// each vertex once (Dijkstra's rule), and it cuts the drain short where an
	// edge breaks the rule (async.go). False is the
	// mass-residual form (PR-Delta): every sweep consumes the mass it pushed,
	// and a step sweeps its row once.
	LabelCorrecting() bool
}

// RunReference executes prog for up to maxIters BSP iterations on an
// in-memory CSR, with no I/O at all. It is the correctness oracle for the
// out-of-core engines: every engine configuration must produce the same
// outputs (bit-exact for min-style programs, within floating-point
// tolerance for sum-style ones).
//
// maxIters <= 0 means run to prog.MaxIterations().
func RunReference(g *graph.Graph, prog Program, maxIters int) ([]float64, int) {
	if maxIters <= 0 {
		maxIters = prog.MaxIterations()
	}
	n := g.NumVertices
	csr := graph.BuildCSR(g)
	deg := g.OutDegrees()

	valPrev := make([]float64, n)
	valCur := make([]float64, n)
	var aux []float64
	if prog.HasAux() {
		aux = make([]float64, n)
	}
	active := bitset.NewActiveSet(n)
	prog.Init(n, valPrev, aux, active)
	copy(valCur, valPrev)

	acc := make([]float64, n)
	for v := range acc {
		acc[v] = prog.Identity()
	}
	touched := bitset.NewActiveSet(n)

	iter := 0
	for ; iter < maxIters; iter++ {
		if active.Empty() {
			break
		}
		// Scatter.
		active.ForEach(func(u int) bool {
			uid := graph.VertexID(u)
			neighbors := csr.Neighbors(uid)
			weights := csr.Weights(uid)
			for k, dst := range neighbors {
				e := graph.Edge{Src: uid, Dst: dst}
				if weights != nil {
					e.Weight = weights[k]
				}
				acc[dst] = prog.Merge(acc[dst], prog.Gather(valPrev[u], e, deg[u]))
				touched.Activate(int(dst))
			}
			return true
		})
		// Apply.
		newActive := bitset.NewActiveSet(n)
		applyOne := func(v int) bool {
			nv, act := prog.Apply(graph.VertexID(v), valPrev[v], acc[v], aux, n)
			valCur[v] = nv
			if act {
				newActive.Activate(v)
			}
			acc[v] = prog.Identity()
			return true
		}
		if prog.AlwaysActive() {
			for v := 0; v < n; v++ {
				applyOne(v)
			}
		} else {
			touched.ForEach(applyOne)
		}
		touched.Reset()
		valPrev, valCur = valCur, valPrev
		copy(valCur, valPrev)
		active = newActive
	}

	out := make([]float64, n)
	for v := range out {
		out[v] = prog.Output(graph.VertexID(v), valPrev[v], aux)
	}
	return out, iter
}
