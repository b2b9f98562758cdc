package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// noKernel and noKernelMono hide a program's EdgeKernel method — embedding
// the interface promotes only the interface's own methods — so the engine
// runs it through the generic Gather/Merge loop.
type noKernel struct{ core.Program }
type noKernelMono struct{ core.Monotonic }

func hideKernel(p core.Program) core.Program {
	if m, ok := p.(core.Monotonic); ok {
		return noKernelMono{m}
	}
	return noKernel{p}
}

// kernelPrograms are the built-in programs that declare a kernel.
func kernelPrograms() map[string]func() core.Program {
	return map[string]func() core.Program{
		"pagerank": func() core.Program { return &algorithms.PageRank{Iterations: 5} },
		"prdelta":  func() core.Program { return &algorithms.PageRankDelta{Iterations: 8} },
		"cc":       func() core.Program { return &algorithms.ConnectedComponents{} },
		"bfs":      func() core.Program { return &algorithms.BFS{Source: 0} },
		"sssp":     func() core.Program { return &algorithms.SSSP{Source: 0} },
	}
}

func TestBuiltinsDeclareDistinctKernels(t *testing.T) {
	want := map[string]core.EdgeKernel{
		"pagerank": core.KernelSumOverOutDegree, "prdelta": core.KernelSumOverOutDegree,
		"cc": core.KernelMinCopy, "bfs": core.KernelMinPlusOne, "sssp": core.KernelMinPlusWeight,
	}
	for name, mk := range kernelPrograms() {
		s, err := core.NewScatterer(mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kernel() != want[name] {
			t.Errorf("%s: kernel %d, want %d", name, s.Kernel(), want[name])
		}
		if s, _ := core.NewScatterer(hideKernel(mk()), nil); s.Kernel() != core.KernelGeneric {
			t.Errorf("%s: hidden kernel still visible", name)
		}
	}
	for _, p := range []core.Program{&algorithms.WidestPath{}, &algorithms.Reachability{}} {
		if s, _ := core.NewScatterer(p, nil); s.Kernel() != core.KernelGeneric {
			t.Errorf("%s declares kernel %d; it has none", p.Name(), s.Kernel())
		}
	}
}

type badKernel struct{ core.Program }

func (badKernel) EdgeKernel() core.EdgeKernel { return 200 }

func TestUnknownKernelRejected(t *testing.T) {
	l := buildLayout(t, paperGraph(), 2)
	if _, err := core.NewEngine(l, badKernel{&algorithms.PageRank{}}, core.Options{}); err == nil {
		t.Fatal("NewEngine accepted a program declaring an unknown edge kernel")
	}
}

// scatterCase is one randomly drawn scatter call: a block of edges from the
// source interval [srcLo, srcHi) into the destination interval [lo, hi) of an
// n-vertex graph, with the state the call reads.
type scatterCase struct {
	n, lo, hi    int
	srcLo, srcHi int
	edges        []graph.Edge
	vals         []float64
	degrees      []uint32
	filter       *bitset.ActiveSet
	// acc0/touched0 are the accumulators before the call: the identity
	// except where an earlier block of the pass already landed.
	acc0     []float64
	touched0 []int
}

func drawScatterCase(rng *rand.Rand, id float64, weighted bool, numEdges int) scatterCase {
	c := scatterCase{n: 200 + rng.Intn(3000)}
	c.lo = rng.Intn(c.n / 2)
	c.hi = c.lo + 1 + rng.Intn(c.n-c.lo)
	c.vals = make([]float64, c.n)
	c.degrees = make([]uint32, c.n)
	for v := range c.vals {
		switch rng.Intn(12) {
		case 0, 1:
			c.vals[v] = math.Inf(1)
		case 2, 3:
			c.vals[v] = 0
		case 4:
			c.vals[v] = math.Inf(-1)
		case 5:
			c.vals[v] = math.NaN()
		case 6:
			c.vals[v] = math.Copysign(0, -1)
		default:
			c.vals[v] = rng.Float64() * 100
		}
		if rng.Intn(5) > 0 { // the rest stay sources of out-degree zero
			c.degrees[v] = uint32(1 + rng.Intn(40))
		}
	}
	c.filter = bitset.NewActiveSet(c.n)
	c.srcLo, c.srcHi = 0, c.n
	switch f := rng.Intn(5); f {
	case 0: // empty
	case 1: // full: the full-row path over every source
		c.filter.ActivateAll()
	case 2:
		for v := 0; v < c.n; v += 1 + rng.Intn(100) {
			c.filter.Activate(v)
		}
	default:
		for v := 0; v < c.n; v++ {
			if rng.Intn(2) == 0 {
				c.filter.Activate(v)
			}
		}
		if f == 4 { // half, but whole over the edges' source row: the full-row path
			c.srcLo = rng.Intn(c.n / 2)
			c.srcHi = c.srcLo + 1 + rng.Intn(c.n-c.srcLo)
			for v := c.srcLo; v < c.srcHi; v++ {
				c.filter.Activate(v)
			}
		}
	}
	// Unsorted, with duplicates and self-loops.
	c.edges = make([]graph.Edge, numEdges)
	for k := range c.edges {
		ed := graph.Edge{Src: graph.VertexID(c.srcLo + rng.Intn(c.srcHi-c.srcLo)), Dst: graph.VertexID(c.lo + rng.Intn(c.hi-c.lo))}
		switch {
		case k > 0 && rng.Intn(10) == 0:
			ed = c.edges[rng.Intn(k)]
		case rng.Intn(10) == 0 && int(ed.Src) >= c.lo && int(ed.Src) < c.hi:
			ed.Dst = ed.Src
		}
		if weighted {
			// Weights come from input files: non-finite ones are legal there.
			switch rng.Intn(20) {
			case 0:
				ed.Weight = float32(math.NaN())
			case 1:
				ed.Weight = float32(math.Inf(-1))
			case 2:
				ed.Weight = float32(math.Inf(1))
			default:
				ed.Weight = float32(rng.Intn(8)) / 2
			}
		}
		c.edges[k] = ed
	}
	c.acc0 = make([]float64, c.n)
	for v := range c.acc0 {
		c.acc0[v] = id
	}
	for k := rng.Intn(50); k > 0; k-- {
		v := c.lo + rng.Intn(c.hi-c.lo)
		c.acc0[v] = rng.Float64() * 10
		c.touched0 = append(c.touched0, v)
	}
	return c
}

// sameFloat reports whether a and b are the same bits, or both NaN: which
// operand's payload an add or a min of two NaNs keeps follows the operand
// order the compiler picked, and no program reads it.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// run scatters the case through s, its terms filled first, and returns the
// accumulators it leaves.
func (c scatterCase) run(s *core.Scatterer) ([]float64, *bitset.ActiveSet) {
	acc := append([]float64(nil), c.acc0...)
	touched := bitset.NewActiveSet(c.n)
	for _, v := range c.touched0 {
		touched.Activate(v)
	}
	s.Fill(c.vals)
	s.Scatter(c.edges, c.vals, c.filter, acc, touched, c.srcLo, c.srcHi, c.lo, c.hi)
	return acc, touched
}

// TestKernelMatchesGenericLoop is the differential test of kernel.go: for
// every built-in that declares a kernel, over random blocks and filters, the
// specialised loop and the generic Gather/Merge loop leave the same bits in
// acc, the same touched words and the same touched count. The sum loop reads
// the terms Fill made of the values, and runs without the filter test when
// the filter holds the whole source row: over every source, or over one row
// of a half filter. One trial in ten scatters a batch of 128 Ki edges or
// more, the size of a large sub-block.
func TestKernelMatchesGenericLoop(t *testing.T) {
	for name, mk := range kernelPrograms() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)*31 + 1)))
			prog := mk()
			for trial := 0; trial < 60; trial++ {
				numEdges := rng.Intn(600)
				if trial%10 == 0 {
					numEdges = 1<<17 + rng.Intn(4000)
				}
				c := drawScatterCase(rng, prog.Identity(), prog.Weighted(), numEdges)
				kerneled, err := core.NewScatterer(prog, c.degrees)
				if err != nil {
					t.Fatal(err)
				}
				generic, _ := core.NewScatterer(hideKernel(prog), c.degrees)
				wantAcc, wantTouched := c.run(generic)
				gotAcc, gotTouched := c.run(kerneled)
				for v := range wantAcc {
					if !sameFloat(gotAcc[v], wantAcc[v]) {
						t.Fatalf("trial %d: acc[%d] = %v, generic loop left %v", trial, v, gotAcc[v], wantAcc[v])
					}
				}
				if !slices.Equal(gotTouched.Words(), wantTouched.Words()) {
					t.Fatalf("trial %d: touched %v, generic loop left %v", trial, gotTouched.Slice(), wantTouched.Slice())
				}
				if set := gotTouched.CountRange(0, c.n); gotTouched.Count() != wantTouched.Count() || gotTouched.Count() != set {
					t.Fatalf("trial %d: touched count %d, generic %d, bits set %d", trial, gotTouched.Count(), wantTouched.Count(), set)
				}
			}
		})
	}
}

// TestAlwaysActiveKernelMatchesTrackedLoop covers the sum loop's untracked
// path: a full row scattered by a pass that applies every vertex of an
// always-active program. On the blocks, filters and terms of
// TestKernelMatchesGenericLoop it leaves the same acc bits as the tracked loop;
// the loop itself writes no touched word; and Engine.scatter leaves the call's
// whole destination interval marked over what touched held, with an exact
// count — and an empty call marks nothing. Off a full row the path is the
// tracked loop's, touched words and all.
func TestAlwaysActiveKernelMatchesTrackedLoop(t *testing.T) {
	for _, name := range []string{"pagerank", "prdelta"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)*17 + 3)))
			prog := kernelPrograms()[name]()
			untracked := 0
			for trial := 0; trial < 60; trial++ {
				numEdges := 1 + rng.Intn(600)
				if trial%10 == 0 {
					numEdges = 1<<17 + rng.Intn(4000)
				}
				c := drawScatterCase(rng, prog.Identity(), prog.Weighted(), numEdges)
				tracked, err := core.NewScatterer(prog, c.degrees)
				if err != nil {
					t.Fatal(err)
				}
				every, _ := core.NewScatterer(prog, c.degrees)
				every.ApplyEvery()
				wantAcc, wantTouched := c.run(tracked)
				gotAcc, gotTouched := c.run(every)
				for v := range wantAcc {
					if !sameFloat(gotAcc[v], wantAcc[v]) {
						t.Fatalf("trial %d: acc[%d] = %v, tracked loop left %v", trial, v, gotAcc[v], wantAcc[v])
					}
				}
				full := c.filter.CountRange(c.srcLo, c.srcHi) == c.srcHi-c.srcLo
				if full {
					untracked++
					// touched0 lies inside [lo, hi): the interval is the whole set.
					wantTouched = bitset.NewActiveSet(c.n)
					wantTouched.FillRange(c.lo, c.hi)
				}
				if !slices.Equal(gotTouched.Words(), wantTouched.Words()) || gotTouched.Count() != wantTouched.Count() || gotTouched.Count() != gotTouched.CountRange(0, c.n) {
					t.Fatalf("trial %d (full row %t): touched %d bits, count %d; want %d bits", trial, full, gotTouched.CountRange(0, c.n), gotTouched.Count(), wantTouched.Count())
				}

				// The loop alone, on words no set owns: a full row writes none.
				words := make([]uint64, (c.n+63)/64)
				for k := range words {
					words[k] = 0xa5a5_5a5a_0ff0_f00f
				}
				seen := slices.Clone(words)
				acc := slices.Clone(c.acc0)
				every.Loop(c.edges, c.vals, c.filter, acc, words, c.srcLo, c.srcHi)
				if full && !slices.Equal(words, seen) {
					t.Fatalf("trial %d: the untracked loop wrote touched words", trial)
				}

				// An empty call marks nothing.
				empty := bitset.NewActiveSet(c.n)
				every.Scatter(nil, c.vals, c.filter, acc, empty, c.srcLo, c.srcHi, c.lo, c.hi)
				if empty.Count() != 0 || empty.CountRange(0, c.n) != 0 {
					t.Fatalf("trial %d: an empty call marked %d bits", trial, empty.CountRange(0, c.n))
				}
			}
			if untracked == 0 {
				t.Fatal("no trial drew a full row")
			}
		})
	}
}

// TestAlwaysActivePassesRunToTheirBound: PageRank, always active, takes the
// sum loop's untracked path on every full row, so the touched sets hold
// whole marked intervals rather than the destinations its edges reached. On
// fciu, full-single, SCIU with cross-iteration on and Lumos it must still run
// to its iteration bound on the same paths, to the generic loop's bits. Over a
// graph where every vertex has an out-edge SCIU prescatters every vertex, so
// the next frontier is empty and only the staged touched set keeps the run
// going. Resumed from an fciu-1 image, whose staged set must be non-empty,
// and from an fciu-2 image, a run ends on the uninterrupted run's bits.
func TestAlwaysActivePassesRunToTheirBound(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := &graph.Graph{NumVertices: rmat.NumVertices, Edges: rmat.Edges}
	for v := 0; v < g.NumVertices; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % g.NumVertices)})
	}
	const bound = 6
	mk := func() core.Program { return &algorithms.PageRank{Iterations: bound} }
	fciu := core.Options{ForceModel: core.ForceFull, DefaultBuffer: true}
	paths := func(res *core.Result) (out []string) {
		for _, st := range res.IterStats {
			out = append(out, st.Path)
		}
		return out
	}
	for name, c := range map[string]struct {
		system string
		opts   core.Options
	}{
		"fciu":            {"graphsd", fciu},
		"full-single":     {"graphsd", core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true}},
		"sciu-prescatter": {"graphsd", core.Options{ForceModel: core.ForceOnDemand}},
		"lumos":           {"lumos", core.Options{}},
	} {
		t.Run(name, func(t *testing.T) {
			l := buildSystem(t, c.system, g, 4, storage.HDD)
			want, err := core.Run(l, hideKernel(mk()), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Run(l, mk(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			bitIdentical(t, "kernel vs generic", got.Outputs, want.Outputs)
			if got.Iterations != bound || want.Iterations != bound || !slices.Equal(paths(got), paths(want)) {
				t.Fatalf("kernel ran %d iterations %v, generic %d %v; want %d each", got.Iterations, paths(got), want.Iterations, paths(want), bound)
			}
			if name == "sciu-prescatter" && got.IterStats[1].Active != 0 {
				t.Fatalf("%d vertices active after the first SCIU iteration; the graph must let it prescatter every vertex", got.IterStats[1].Active)
			}
		})
	}

	for _, at := range []string{"fciu-1", "fciu-2"} {
		t.Run("resume-"+at, func(t *testing.T) {
			l := buildLayout(t, g, 4)
			base, err := core.Run(l, mk(), fciu)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := -1
			o := fciu
			o.Checkpoint = core.CheckpointOptions{Every: 1, Dir: dir}
			o.OnIteration = func(st core.IterStat) {
				if stop < 0 && st.Index >= 2 && st.Path == at {
					stop = st.Index + 1
					cancel()
				}
			}
			if _, err := core.RunContext(ctx, l, mk(), o); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			ck, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			staged := bitset.NewActiveSet(g.NumVertices)
			if err := staged.LoadWords(ck.TouchedNext); err != nil {
				t.Fatal(err)
			}
			if ck.Iteration != stop || ck.SecondaryPending != (at == "fciu-1") || (at == "fciu-1" && staged.Empty()) {
				t.Fatalf("image at iteration %d (want %d), secondary pending %t, %d staged vertices", ck.Iteration, stop, ck.SecondaryPending, staged.Count())
			}
			o = fciu
			o.Checkpoint = core.CheckpointOptions{Every: 1, Dir: dir, Resume: true}
			res, err := core.Run(l, mk(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.ResumedFrom != stop || res.Iterations != bound {
				t.Fatalf("resumed %t from %d, ran to %d; want from %d to %d", res.Resumed, res.ResumedFrom, res.Iterations, stop, bound)
			}
			bitIdentical(t, "resumed from "+at+" vs uninterrupted", res.Outputs, base.Outputs)
		})
	}
}

// TestPassesStartOnFilledTerms: the sum kernel scatters from terms, each its
// source's value over its out-degree, filled as values become final. An fciu-2
// pass does not refill them: the fciu-1 pass before it filled every interval's
// as it applied it, and advance hands them on with the values. At the start of
// every pass — fciu, full-single, SCIU, HUS-Graph, Lumos, and runs resumed from
// an fciu-1 and an fciu-2 image — the terms of every live row must be exactly
// what filling them from the values the pass scatters would give.
func TestPassesStartOnFilledTerms(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	fciu := core.Options{ForceModel: core.ForceFull, DefaultBuffer: true}
	runs := map[string]struct {
		system string
		opts   core.Options
		path   string // a path the run must take
	}{
		"fciu":        {"graphsd", fciu, "fciu-2"},
		"full-single": {"graphsd", core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true}, "full-single"},
		"sciu":        {"graphsd", core.Options{ForceModel: core.ForceOnDemand}, "sciu"},
		"husgraph":    {"husgraph", core.Options{}, "husgraph-full"},
		"lumos":       {"lumos", core.Options{}, "lumos-2"},
	}
	for prog, mk := range map[string]func() core.Program{
		"pagerank": func() core.Program { return &algorithms.PageRank{Iterations: 6} },
		"prdelta":  func() core.Program { return &algorithms.PageRankDelta{Iterations: 8} },
	} {
		check := func(t *testing.T, ctx context.Context, l *partition.Layout, opts core.Options) *core.Result {
			t.Helper()
			res, stale, passes, err := core.RunCheckingTerms(ctx, l, mk(), opts)
			if stale != "" {
				t.Fatal(stale)
			}
			if err == nil && passes == 0 {
				t.Fatal("no pass began")
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			return res
		}
		for name, r := range runs {
			t.Run(prog+"/"+name, func(t *testing.T) {
				res := check(t, context.Background(), buildSystem(t, r.system, g, 4, storage.HDD), r.opts)
				if !slices.ContainsFunc(res.IterStats, func(st core.IterStat) bool { return st.Path == r.path }) {
					t.Fatalf("the run never took %s", r.path)
				}
			})
		}
		for _, at := range []string{"fciu-1", "fciu-2"} {
			t.Run(prog+"/resume-"+at, func(t *testing.T) {
				l := buildLayout(t, g, 4)
				base := check(t, context.Background(), l, fciu)
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				o := fciu
				o.Checkpoint = core.CheckpointOptions{Every: 1, Dir: dir}
				o.OnIteration = func(st core.IterStat) {
					if st.Index >= 1 && st.Path == at {
						cancel()
					}
				}
				check(t, ctx, l, o)
				if ctx.Err() == nil {
					t.Fatalf("the run never took %s", at)
				}
				o = fciu
				o.Checkpoint = core.CheckpointOptions{Every: 1, Dir: dir, Resume: true}
				res := check(t, context.Background(), l, o)
				if !res.Resumed {
					t.Fatal("the run did not resume")
				}
				bitIdentical(t, "resumed from "+at+" vs uninterrupted", res.Outputs, base.Outputs)
			})
		}
	}
}

// kernelPaths are the drivers that scatter: FCIU, SCIU, the single full
// pass, the adaptive engine and the async row step.
func kernelPaths() map[string]core.Options {
	return map[string]core.Options{
		"fciu":        {ForceModel: core.ForceFull, DefaultBuffer: true},
		"sciu":        {ForceModel: core.ForceOnDemand},
		"full-single": {ForceModel: core.ForceFull, DisableCrossIteration: true},
		"adaptive":    {DefaultBuffer: true},
		"async":       {Async: true, DefaultBuffer: true},
	}
}

// forKernelRuns calls fn for every built-in with a kernel on every path it
// can run, with a function that runs a program over g.
func forKernelRuns(t *testing.T, g *graph.Graph, p int, paths []string, fn func(t *testing.T, mk func() core.Program, run func(core.Program) *core.Result)) {
	for pname, mk := range kernelPrograms() {
		for _, path := range paths {
			opts := kernelPaths()[path]
			if _, mono := mk().(core.Monotonic); opts.Async && !mono {
				continue
			}
			t.Run(pname+"/"+path, func(t *testing.T) {
				layout := buildLayout(t, g, p)
				fn(t, mk, func(prog core.Program) *core.Result {
					res, err := core.Run(layout, prog, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
			})
		}
	}
}

// TestEngineKernelMatchesGenericOutputs runs each built-in with and without
// its kernel on every driver and demands bit-identical outputs, iteration
// counts and device traffic.
func TestEngineKernelMatchesGenericOutputs(t *testing.T) {
	rmat, err := gen.RMAT(9, 10, gen.Graph500, 21)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"fciu", "sciu", "full-single", "adaptive", "async"}
	forKernelRuns(t, gen.Weighted(rmat, 7, 3), 4, paths, func(t *testing.T, mk func() core.Program, run func(core.Program) *core.Result) {
		want, got := run(hideKernel(mk())), run(mk())
		bitIdentical(t, "kernel vs generic", got.Outputs, want.Outputs)
		if got.Iterations != want.Iterations || got.IO.TotalBytes() != want.IO.TotalBytes() {
			t.Fatalf("kernel run: %d iterations, %d device bytes; generic: %d, %d",
				got.Iterations, got.IO.TotalBytes(), want.Iterations, want.IO.TotalBytes())
		}
	})
}

// fanOutGraph is a weighted graph whose one sub-block (at P=1) and one
// interval are large enough that a parallel scatter and apply — 128 Ki edges
// and 64 Ki vertices were the thresholds of the one this engine had — would
// fan out: an R-MAT graph plus a binary tree, so that every vertex has an
// in-edge and is touched while the diameter stays small.
func fanOutGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(16, 2, gen.Graph500, 22)
	if err != nil {
		t.Fatal(err)
	}
	n := rmat.NumVertices + 100
	g := &graph.Graph{NumVertices: n, Edges: rmat.Edges}
	for v := 0; v < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID((v + n - 1) % n / 2), Dst: graph.VertexID(v)})
	}
	if len(g.Edges) < 1<<17 || n < 1<<16 {
		t.Fatalf("test graph (%d vertices, %d edges) is smaller than a fan-out", n, len(g.Edges))
	}
	return gen.Weighted(g, 7, 4)
}

// TestResultsIgnoreCoreCount: a job's outputs do not depend on the host.
// Floating-point sums — PageRank over full passes and over SCIU with its
// cross-iteration batch, PageRank-Delta under async — keep the order their
// contributions merge in, so on fanOutGraph every run at GOMAXPROCS 1 and 4
// and at Options.Threads 0, 1 and 4 leaves the same bits. A resume from a
// checkpoint whose header records Threads: 4, as a parallel run once wrote,
// equals the uninterrupted run bit for bit too.
func TestResultsIgnoreCoreCount(t *testing.T) {
	g := fanOutGraph(t)
	for name, c := range map[string]struct {
		prog func() core.Program
		opts core.Options
	}{
		"bsp":   {func() core.Program { return &algorithms.PageRank{Iterations: 6} }, core.Options{}},
		"sciu":  {func() core.Program { return &algorithms.PageRank{Iterations: 4} }, core.Options{ForceModel: core.ForceOnDemand}},
		"async": {func() core.Program { return &algorithms.PageRankDelta{Iterations: 12} }, core.Options{Async: true}},
	} {
		t.Run(name, func(t *testing.T) {
			l := buildLayout(t, g, 1)
			run := func(procs, threads int, ck core.CheckpointOptions, onIter func(core.IterStat)) (*core.Result, error) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				o := c.opts
				o.Threads, o.Checkpoint, o.OnIteration = threads, ck, onIter
				return core.Run(l, c.prog(), o)
			}
			want, err := run(1, 1, core.CheckpointOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 4} {
				for _, threads := range []int{0, 1, 4} {
					res, err := run(procs, threads, core.CheckpointOptions{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					bitIdentical(t, fmt.Sprintf("GOMAXPROCS=%d Threads=%d vs GOMAXPROCS=1 Threads=1", procs, threads), res.Outputs, want.Outputs)
				}
			}

			ckDir := t.TempDir()
			power := errors.New("power loss")
			_, err = run(1, 1, core.CheckpointOptions{Every: 1, Dir: ckDir}, func(st core.IterStat) {
				if st.Index == 2 {
					l.Dev.SetFaultInjector(func(op, name string) error { return power })
				}
			})
			l.Dev.SetFaultInjector(nil)
			if !errors.Is(err, power) {
				t.Fatalf("crashed run returned %v, want injected power loss", err)
			}
			ck, err := checkpoint.Load(ckDir)
			if err != nil {
				t.Fatal(err)
			}
			ck.Threads = 4
			if err := checkpoint.Save(ckDir, ck); err != nil {
				t.Fatal(err)
			}
			res, err := run(4, 0, core.CheckpointOptions{Dir: ckDir, Resume: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed {
				t.Fatal("run did not resume from the checkpoint")
			}
			bitIdentical(t, "resumed from a Threads: 4 checkpoint vs uninterrupted", res.Outputs, want.Outputs)
		})
	}
}

// TestEngineIgnoresCoreCount carries TestResultsIgnoreCoreCount across the
// engine matrix: every built-in with a kernel, on every driver that scatters
// over fanOutGraph, leaves the same bits at GOMAXPROCS 1 and 4 with Threads
// at its default, with or without its kernel. Under -race it is also the
// check that the prefetch workers share nothing the engine goroutine writes.
func TestEngineIgnoresCoreCount(t *testing.T) {
	paths := []string{"fciu", "sciu", "full-single", "async"}
	forKernelRuns(t, fanOutGraph(t), 1, paths, func(t *testing.T, mk func() core.Program, run func(core.Program) *core.Result) {
		at := func(procs int, prog core.Program) []float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return run(prog).Outputs
		}
		want := at(1, mk())
		bitIdentical(t, "GOMAXPROCS=4 vs GOMAXPROCS=1", at(4, mk()), want)
		bitIdentical(t, "GOMAXPROCS=4 generic loop vs GOMAXPROCS=1 kernel", at(4, hideKernel(mk())), want)
	})
}
