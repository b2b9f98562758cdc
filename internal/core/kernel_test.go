package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
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
		s, err := core.NewScatterer(mk(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kernel() != want[name] {
			t.Errorf("%s: kernel %d, want %d", name, s.Kernel(), want[name])
		}
		if s, _ := core.NewScatterer(hideKernel(mk()), 1, nil); s.Kernel() != core.KernelGeneric {
			t.Errorf("%s: hidden kernel still visible", name)
		}
	}
	for _, p := range []core.Program{&algorithms.WidestPath{}, &algorithms.Reachability{}} {
		if s, _ := core.NewScatterer(p, 1, nil); s.Kernel() != core.KernelGeneric {
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

// scatterCase is one randomly drawn scatter call: a block of edges into the
// destination interval [lo, hi) of an n-vertex graph, with the state the
// call reads.
type scatterCase struct {
	n, lo, hi int
	edges     []graph.Edge
	vals      []float64
	degrees   []uint32
	filter    *bitset.ActiveSet
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
		default:
			c.vals[v] = rng.Float64() * 100
		}
		if rng.Intn(5) > 0 { // the rest stay sources of out-degree zero
			c.degrees[v] = uint32(1 + rng.Intn(40))
		}
	}
	c.filter = bitset.NewActiveSet(c.n)
	switch rng.Intn(4) {
	case 0: // empty
	case 1:
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
	}
	// Unsorted, with duplicates and self-loops.
	c.edges = make([]graph.Edge, numEdges)
	for k := range c.edges {
		ed := graph.Edge{Src: graph.VertexID(rng.Intn(c.n)), Dst: graph.VertexID(c.lo + rng.Intn(c.hi-c.lo))}
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

// run scatters the case through s and returns the accumulators it leaves.
func (c scatterCase) run(s *core.Scatterer) ([]float64, *bitset.ActiveSet) {
	acc := append([]float64(nil), c.acc0...)
	touched := bitset.NewActiveSet(c.n)
	for _, v := range c.touched0 {
		touched.Activate(v)
	}
	s.Scatter(c.edges, c.vals, c.filter, acc, touched, c.lo, c.hi)
	return acc, touched
}

// TestKernelMatchesGenericLoop is the differential test of kernel.go: for
// every built-in that declares a kernel, over random blocks and filters, the
// specialised loop and the generic Gather/Merge loop leave the same bits in
// acc, the same touched words and the same touched count. It holds at any
// one thread count, because the parallel reduce is the same for both; at
// more than one thread it also checks that a second call finds the private
// accumulators restored.
func TestKernelMatchesGenericLoop(t *testing.T) {
	for name, mk := range kernelPrograms() {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/threads-%d", name, threads), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name)*31 + threads)))
				prog := mk()
				for trial := 0; trial < 60; trial++ {
					numEdges := rng.Intn(600)
					if trial%10 == 0 { // large enough to fan out
						numEdges = core.SerialScatterThreshold + rng.Intn(4000)
					}
					c := drawScatterCase(rng, prog.Identity(), prog.Weighted(), numEdges)
					kerneled, err := core.NewScatterer(prog, threads, c.degrees)
					if err != nil {
						t.Fatal(err)
					}
					generic, _ := core.NewScatterer(hideKernel(prog), threads, c.degrees)
					wantAcc, wantTouched := c.run(generic)
					for call := 0; call < 2; call++ {
						gotAcc, gotTouched := c.run(kerneled)
						for v := range wantAcc {
							if !sameFloat(gotAcc[v], wantAcc[v]) {
								t.Fatalf("trial %d call %d: acc[%d] = %v, generic loop left %v", trial, call, v, gotAcc[v], wantAcc[v])
							}
						}
						if !gotTouched.Bits().Equal(wantTouched.Bits()) {
							t.Fatalf("trial %d call %d: touched %v, generic loop left %v", trial, call, gotTouched.Bits(), wantTouched.Bits())
						}
						if gotTouched.Count() != wantTouched.Count() || gotTouched.Count() != gotTouched.Bits().Count() {
							t.Fatalf("trial %d call %d: touched count %d, generic %d, bits set %d",
								trial, call, gotTouched.Count(), wantTouched.Count(), gotTouched.Bits().Count())
						}
					}
					kerneled.Close()
					generic.Close()
				}
			})
		}
	}
}

// TestParallelScatterExactForMin: the privatised-accumulator reduce merges a
// destination's chunks in a different association than the serial loop, which
// a min cannot see.
func TestParallelScatterExactForMin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"cc", "bfs", "sssp"} {
		prog := kernelPrograms()[name]()
		c := drawScatterCase(rng, prog.Identity(), prog.Weighted(), 2*core.SerialScatterThreshold)
		serial, _ := core.NewScatterer(prog, 1, c.degrees)
		wantAcc, wantTouched := c.run(serial)
		for _, threads := range []int{2, 4, 7} {
			par, _ := core.NewScatterer(prog, threads, c.degrees)
			gotAcc, gotTouched := c.run(par)
			par.Close()
			for v := range wantAcc {
				if !sameFloat(gotAcc[v], wantAcc[v]) {
					t.Fatalf("%s threads=%d: acc[%d] = %v, serial scatter left %v", name, threads, v, gotAcc[v], wantAcc[v])
				}
			}
			if !gotTouched.Bits().Equal(wantTouched.Bits()) || gotTouched.Count() != wantTouched.Count() {
				t.Fatalf("%s threads=%d: touched set differs from the serial scatter's", name, threads)
			}
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
// can run, with a function that runs a program at a thread count over g.
func forKernelRuns(t *testing.T, g *graph.Graph, p int, paths []string, fn func(t *testing.T, mk func() core.Program, run func(core.Program, int) *core.Result)) {
	for pname, mk := range kernelPrograms() {
		for _, path := range paths {
			opts := kernelPaths()[path]
			if _, mono := mk().(core.Monotonic); opts.Async && !mono {
				continue
			}
			t.Run(pname+"/"+path, func(t *testing.T) {
				layout := buildLayout(t, g, p)
				fn(t, mk, func(prog core.Program, threads int) *core.Result {
					o := opts
					o.Threads = threads
					res, err := core.Run(layout, prog, o)
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
// counts and device traffic at one thread.
func TestEngineKernelMatchesGenericOutputs(t *testing.T) {
	rmat, err := gen.RMAT(9, 10, gen.Graph500, 21)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"fciu", "sciu", "full-single", "adaptive", "async"}
	forKernelRuns(t, gen.Weighted(rmat, 7, 3), 4, paths, func(t *testing.T, mk func() core.Program, run func(core.Program, int) *core.Result) {
		want, got := run(hideKernel(mk()), 1), run(mk(), 1)
		bitIdentical(t, "kernel vs generic", got.Outputs, want.Outputs)
		if got.Iterations != want.Iterations || got.IO.TotalBytes() != want.IO.TotalBytes() {
			t.Fatalf("kernel run: %d iterations, %d device bytes; generic: %d, %d",
				got.Iterations, got.IO.TotalBytes(), want.Iterations, want.IO.TotalBytes())
		}
	})
}

// fanOutGraph is a weighted graph whose one sub-block (at P=1) and one
// interval are large enough for scatter and apply to fan out: an R-MAT graph
// plus a binary tree, so that every vertex has an in-edge and is touched
// while the diameter stays small.
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
	if len(g.Edges) < core.SerialScatterThreshold || n < core.SerialApplyThreshold {
		t.Fatalf("test graph (%d vertices, %d edges) no longer reaches the fan-out thresholds", n, len(g.Edges))
	}
	return gen.Weighted(g, 7, 4)
}

// TestEngineParallelDeterministic runs fanOutGraph at four threads: two runs
// agree bit for bit, the kernel agrees with the generic loop, and the min
// programs agree with the one-thread run. Under -race it is also the check
// that the workers share nothing they write.
func TestEngineParallelDeterministic(t *testing.T) {
	forKernelRuns(t, fanOutGraph(t), 1, []string{"fciu", "sciu", "async"}, func(t *testing.T, mk func() core.Program, run func(core.Program, int) *core.Result) {
		first := run(mk(), 4)
		bitIdentical(t, "threads=4 run to run", run(mk(), 4).Outputs, first.Outputs)
		bitIdentical(t, "threads=4 kernel vs generic", run(hideKernel(mk()), 4).Outputs, first.Outputs)
		if mk().Identity() != 0 { // a min program
			bitIdentical(t, "threads=4 vs threads=1", first.Outputs, run(mk(), 1).Outputs)
		}
	})
}

// TestResumeAdoptsCheckpointThreads: a parallel sum associates by thread
// count, so a checkpoint records the count and a resume on a host that
// resolves Threads differently scatters on the recorded one — its outputs
// are those of the uninterrupted run, not of a run at the new count.
func TestResumeAdoptsCheckpointThreads(t *testing.T) {
	g := fanOutGraph(t)
	for name, c := range map[string]struct {
		prog func() core.Program
		opts core.Options
	}{
		"bsp":   {func() core.Program { return &algorithms.PageRank{Iterations: 6} }, core.Options{}},
		"async": {func() core.Program { return &algorithms.PageRankDelta{Iterations: 40} }, core.Options{Async: true, AsyncEpsilon: 1e-7}},
	} {
		t.Run(name, func(t *testing.T) {
			l := buildLayout(t, g, 1)
			run := func(threads int, ck core.CheckpointOptions, onIter func(core.IterStat)) (*core.Result, error) {
				o := c.opts
				o.Threads, o.Checkpoint, o.OnIteration = threads, ck, onIter
				return core.Run(l, c.prog(), o)
			}
			at4, err := run(4, core.CheckpointOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			at2, err := run(2, core.CheckpointOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(at4.Outputs, at2.Outputs) {
				t.Fatal("outputs at 2 and 4 threads are equal: this graph no longer tells the thread counts apart")
			}

			ckDir := t.TempDir()
			power := errors.New("power loss")
			_, err = run(4, core.CheckpointOptions{Every: 1, Dir: ckDir}, func(st core.IterStat) {
				if st.Index == 2 {
					l.Dev.SetFaultInjector(func(op, name string) error { return power })
				}
			})
			l.Dev.SetFaultInjector(nil)
			if !errors.Is(err, power) {
				t.Fatalf("crashed run returned %v, want injected power loss", err)
			}
			res, err := run(2, core.CheckpointOptions{Dir: ckDir, Resume: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed {
				t.Fatal("run did not resume from the checkpoint")
			}
			bitIdentical(t, "resumed at Threads=2 vs uninterrupted at Threads=4", res.Outputs, at4.Outputs)
		})
	}
}

// TestCrossIterationBatchScattersSerially: SCIU's cross-iteration batch lands
// anywhere in [0, n), so it must not take the parallel path, whose private
// accumulators would span every vertex per helper. With every sub-block below
// the fan-out threshold and only that batch above it, a sum program's outputs
// at four threads are then those of one thread, bit for bit.
func TestCrossIterationBatchScattersSerially(t *testing.T) {
	g, err := gen.RMAT(14, 10, gen.Graph500, 23)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	l := buildLayout(t, g, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if l.Meta.SubBlockEdges(i, j) >= core.SerialScatterThreshold {
				t.Fatalf("sub-block (%d,%d) fans out by itself", i, j)
			}
		}
	}
	if len(g.Edges) < core.SerialScatterThreshold {
		t.Fatalf("a batch of all %d edges would not fan out", len(g.Edges))
	}
	run := func(threads int) []float64 {
		res, err := core.Run(l, &algorithms.PageRank{Iterations: 5}, core.Options{ForceModel: core.ForceOnDemand, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	bitIdentical(t, "threads=4 vs threads=1", run(4), run(1))
}
