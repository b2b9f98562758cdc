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
// Gather/Merge loop on every path. In the same way an AlwaysActive program
// whose Apply returns (base + scale*merged, true) for every vertex may
// implement
//
//	AffineApply(n int) (base, scale float64)
//
// and the engine applies each interval in one loop without calling Apply
// under BSP (kernel.go); NewEngine refuses the method on a program that is not
// always active.
//
// Gather and Merge may be called from two goroutines at once — an FCIU pass
// runs its iteration t+1 scatters beside its iteration t ones — so they must
// not write state of their own; Apply and the other methods are called from
// one goroutine at a time.
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
// the asynchronous engine (Options.Async): a marker that the program is label
// correcting. Its Merge is min, its Apply keeps the smaller of the old value
// and the merged one and reports the vertex active exactly when the value
// dropped, and no edge carries a value below its source's (CC copies labels,
// BFS and SSSP add non-negative lengths). Labels then only ever shrink, so
// sub-blocks may be processed in any order, any number of times, without a
// global barrier, and the fixed point reached is the one BSP converges to, bit
// for bit.
//
// Under async execution the engine repeatedly picks the source interval with
// the most active vertices per second of row I/O, drains it through its
// diagonal sub-block and pushes what the drain scattered across the rest of
// the row (async.go). It applies contributions with the program's own Apply
// against the live value, and a scattered source stays active only if its
// live value dropped below the one the scatter used. The last rule of the
// contract makes the least active value of an interval final, so a drain may
// settle the interval in value order, scattering each vertex once (Dijkstra's
// rule), and it cuts the drain short where an edge breaks the rule. The run
// converges when no vertex is active.
type Monotonic interface {
	Program
	// LabelCorrecting marks the contract above; the engine never calls it.
	LabelCorrecting()
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
