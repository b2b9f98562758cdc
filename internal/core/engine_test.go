package core_test

import (
	"math"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// paperGraph is the Figure 2 example (0-based).
func paperGraph() *graph.Graph {
	return &graph.Graph{
		NumVertices: 6,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 4},
			{Src: 1, Dst: 2}, {Src: 2, Dst: 0},
			{Src: 2, Dst: 3}, {Src: 3, Dst: 5},
			{Src: 4, Dst: 2}, {Src: 5, Dst: 4},
		},
	}
}

func buildLayout(t *testing.T, g *graph.Graph, p int) *partition.Layout {
	return buildLayoutProf(t, g, p, storage.HDD)
}

func buildLayoutProf(t *testing.T, g *graph.Graph, p int, prof storage.Profile) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), prof)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, g, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func compareOutputs(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: output length %d, want %d", name, len(got), len(want))
	}
	for v := range want {
		if !almostEqual(got[v], want[v], tol) {
			t.Fatalf("%s: vertex %d = %v, want %v", name, v, got[v], want[v])
		}
	}
}

// engineConfigs enumerates the GraphSD configurations that must all be
// BSP-equivalent: full GraphSD, the four ablations of §5.4, and
// buffer-on/off.
func engineConfigs() map[string]core.Options {
	return map[string]core.Options{
		"graphsd":        {DefaultBuffer: true},
		"b1-no-crossit":  {DisableCrossIteration: true, DefaultBuffer: true},
		"b2-force-full":  {ForceModel: core.ForceFull, DefaultBuffer: true},
		"b4-force-ondem": {ForceModel: core.ForceOnDemand},
		"no-buffer":      {},
		"single-thread":  {Threads: 1, DefaultBuffer: true},
	}
}

func testPrograms(src graph.VertexID) map[string]func() core.Program {
	return map[string]func() core.Program{
		"pagerank": func() core.Program { return &algorithms.PageRank{Iterations: 5} },
		"prdelta":  func() core.Program { return &algorithms.PageRankDelta{Iterations: 20} },
		"cc":       func() core.Program { return &algorithms.ConnectedComponents{} },
		"bfs":      func() core.Program { return &algorithms.BFS{Source: src} },
		"reach":    func() core.Program { return &algorithms.Reachability{Source: src} },
	}
}

// TestEngineMatchesReference is the central correctness property of the
// whole system: every engine configuration, on every graph shape and
// partitioning, computes exactly what the synchronous in-memory BSP oracle
// computes. Cross-iteration updates may change when edges are read, never
// what is computed.
func TestEngineMatchesReference(t *testing.T) {
	rmat, err := gen.RMAT(7, 6, gen.Graph500, 9)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := gen.Clustered(3, 20, 60, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"paper":     paperGraph(),
		"chain":     gen.Chain(40),
		"star":      gen.Star(30),
		"rmat":      rmat,
		"clustered": clustered,
	}
	for gname, g := range graphs {
		for _, p := range []int{1, 2, 5} {
			for pname, mk := range testPrograms(0) {
				want, wantIters := core.RunReference(g, mk(), 0)
				for cname, opts := range engineConfigs() {
					layout := buildLayout(t, g, p)
					res, err := core.Run(layout, mk(), opts)
					if err != nil {
						t.Fatalf("%s/%s/p%d/%s: %v", gname, pname, p, cname, err)
					}
					label := gname + "/" + pname + "/p" + string(rune('0'+p)) + "/" + cname
					compareOutputs(t, label, res.Outputs, want, 1e-9)
					if res.Iterations != wantIters {
						t.Errorf("%s: %d iterations, reference %d", label, res.Iterations, wantIters)
					}
				}
			}
		}
	}
}

func TestEngineSSSPMatchesReference(t *testing.T) {
	g := gen.Weighted(gen.Chain(30), 5, 2)
	extra, err := gen.ErdosRenyi(30, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Edges = append(g.Edges, gen.Weighted(extra, 9, 4).Edges...)

	prog := func() core.Program { return &algorithms.SSSP{Source: 0} }
	want, _ := core.RunReference(g, prog(), 0)
	for cname, opts := range engineConfigs() {
		layout := buildLayout(t, g, 3)
		res, err := core.Run(layout, prog(), opts)
		if err != nil {
			t.Fatalf("%s: %v", cname, err)
		}
		compareOutputs(t, "sssp/"+cname, res.Outputs, want, 1e-9)
	}
}

func TestReferencePageRankSumsToOne(t *testing.T) {
	g, err := gen.RMAT(6, 8, gen.Graph500, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With no dangling-mass correction the sum only stays 1 when every
	// vertex has out-degree > 0; add self-loops for sinks.
	deg := g.OutDegrees()
	for v, d := range deg {
		if d == 0 {
			g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v)})
		}
	}
	out, iters := core.RunReference(g, &algorithms.PageRank{Iterations: 5}, 0)
	if iters != 5 {
		t.Fatalf("ran %d iterations", iters)
	}
	sum := 0.0
	for _, r := range out {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PageRank mass = %v, want 1", sum)
	}
}

func TestReferenceCCOnClusters(t *testing.T) {
	// Three disjoint strongly-symmetric clusters: labels must be the
	// minimum reachable id; with bidirectional chains each cluster
	// collapses to its base vertex.
	g := &graph.Graph{NumVertices: 9}
	for c := 0; c < 3; c++ {
		base := graph.VertexID(c * 3)
		for k := 0; k < 2; k++ {
			g.Edges = append(g.Edges,
				graph.Edge{Src: base + graph.VertexID(k), Dst: base + graph.VertexID(k+1)},
				graph.Edge{Src: base + graph.VertexID(k+1), Dst: base + graph.VertexID(k)})
		}
	}
	out, _ := core.RunReference(g, &algorithms.ConnectedComponents{}, 0)
	for v := 0; v < 9; v++ {
		if out[v] != float64(v/3*3) {
			t.Fatalf("vertex %d label %v, want %d", v, out[v], v/3*3)
		}
	}
}

func TestReferenceBFSDepths(t *testing.T) {
	g := gen.Chain(5)
	out, iters := core.RunReference(g, &algorithms.BFS{Source: 0}, 0)
	for v := 0; v < 5; v++ {
		if out[v] != float64(v) {
			t.Fatalf("depth(%d) = %v", v, out[v])
		}
	}
	// 4 propagation iterations plus a final one in which the frontier {4}
	// scatters nothing and the algorithm converges.
	if iters != 5 {
		t.Fatalf("BFS on chain(5) took %d iterations, want 5", iters)
	}
}

func TestEngineUnreachableVerticesStayInf(t *testing.T) {
	g := gen.Chain(10)
	g.NumVertices = 12 // two isolated vertices
	layout := buildLayout(t, g, 3)
	res, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Outputs[10], 1) || !math.IsInf(res.Outputs[11], 1) {
		t.Fatalf("isolated vertices reached: %v %v", res.Outputs[10], res.Outputs[11])
	}
	if !res.Converged {
		t.Fatal("BFS did not converge")
	}
}

// TestNewEngineRejectsWrongLayout: a baseline's layout runs BSP without
// checkpoints, and a layout of a system with no schedule does not run at all.
func TestNewEngineRejectsWrongLayout(t *testing.T) {
	dev, err := storage.OpenDevice(t.TempDir(), storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.BuildLumos(dev, paperGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"async":      {Async: true},
		"checkpoint": {Checkpoint: core.CheckpointOptions{Dir: t.TempDir(), Every: 1}},
	} {
		if _, err := core.NewEngine(l, &algorithms.BFS{}, opts); err == nil {
			t.Errorf("%s accepted on a lumos layout", name)
		}
	}
	l.Meta.System = "pregel"
	if _, err := core.NewEngine(l, &algorithms.PageRank{}, core.Options{}); err == nil {
		t.Fatal("layout of an unknown system accepted")
	}
}

func TestNewEngineRejectsWeightMismatch(t *testing.T) {
	layout := buildLayout(t, paperGraph(), 2) // unweighted layout
	if _, err := core.NewEngine(layout, &algorithms.SSSP{Source: 0}, core.Options{}); err == nil {
		t.Fatal("weighted program accepted on unweighted layout")
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	g := gen.Chain(50)
	layout := buildLayout(t, g, 2)
	res, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{MaxIterations: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 7 {
		t.Fatalf("ran %d iterations with cap 7", res.Iterations)
	}
	if res.Converged {
		t.Fatal("reported convergence despite hitting the cap")
	}
	// Vertices beyond depth 7 must be unreached.
	if !math.IsInf(res.Outputs[20], 1) {
		t.Fatalf("vertex 20 = %v after 7 iterations", res.Outputs[20])
	}
}

func TestDecisionsRecordedPerIteration(t *testing.T) {
	g := gen.Chain(60)
	layout := buildLayout(t, g, 3)
	res, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// FCIU second halves don't consult the scheduler, so decisions <= iters.
	if len(res.Decisions) == 0 || len(res.Decisions) > res.Iterations {
		t.Fatalf("%d decisions for %d iterations", len(res.Decisions), res.Iterations)
	}
	if res.SchedulerOverhead < 0 {
		t.Fatal("negative scheduler overhead")
	}
}

func TestSelectiveLoadsLessThanFull(t *testing.T) {
	// BFS on an R-MAT graph: most iterations have small frontiers, so
	// adaptive GraphSD must move far fewer bytes than the forced-full
	// ablation (this is the heart of Figure 9).
	g, err := gen.RMAT(9, 8, gen.Graph500, 4)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.BFS{Source: 0} }

	// ScaledHDD keeps the paper's seek-to-scan ratio at this graph scale,
	// so the scheduler actually exercises the on-demand model.
	layoutA := buildLayoutProf(t, g, 4, storage.ScaledHDD)
	adaptive, err := core.Run(layoutA, prog(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	layoutB := buildLayoutProf(t, g, 4, storage.ScaledHDD)
	full, err := core.Run(layoutB, prog(), core.Options{ForceModel: core.ForceFull})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.IO.ReadBytes() >= full.IO.ReadBytes() {
		t.Fatalf("adaptive read %d bytes, forced-full %d", adaptive.IO.ReadBytes(), full.IO.ReadBytes())
	}
	compareOutputs(t, "adaptive-vs-full", adaptive.Outputs, full.Outputs, 1e-9)
}

// TestAdaptiveTakesSCIUOnScatteredFrontier: dead-row skipping makes the full
// model cheap whenever the frontier is clustered, so the on-demand model now
// wins only where every source interval holds an active vertex and few of
// them do. On such a frontier the adaptive engine must still choose it: every
// row is live (nothing for a full pass to skip), SCIU iterations run, the
// device moves a fraction of the forced-full bytes, and outputs are
// bit-identical.
func TestAdaptiveTakesSCIUOnScatteredFrontier(t *testing.T) {
	const p, steps = 4, 12
	g, err := gen.Braid(p, 2048, steps, 60000, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.BFS{Source: 0} }
	for _, buffered := range []bool{false, true} {
		opts := core.Options{DefaultBuffer: buffered}
		adaptive, err := core.Run(buildLayoutProf(t, g, p, storage.ScaledHDD), prog(), opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.ForceModel = core.ForceFull
		full, err := core.Run(buildLayoutProf(t, g, p, storage.ScaledHDD), prog(), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Iteration 0 is vertex 0 alone: three rows are dead and the full model
		// is priced for the one live row, yet four edges are still cheaper
		// fetched selectively. Every later frontier is one vertex per interval.
		for _, st := range adaptive.IterStats {
			if st.Path != "sciu" || st.Active > p {
				t.Fatalf("buffered=%t: iteration %d ran %s over %d active vertices, want sciu over at most %d", buffered, st.Index, st.Path, st.Active, p)
			}
		}
		if d := adaptive.Decisions; len(d) < 2 || d[0].CostFull >= d[1].CostFull {
			t.Fatalf("buffered=%t: C_s not priced per frontier: %d decisions, first two %+v", buffered, len(d), d[:min(2, len(d))])
		}
		if full.SEM.BlocksSkipped > p*(p-1) {
			t.Fatalf("buffered=%t: forced-full skipped %d blocks; only iteration 0 has dead rows", buffered, full.SEM.BlocksSkipped)
		}
		if adaptive.IO.ReadBytes()*2 > full.IO.ReadBytes() {
			t.Fatalf("buffered=%t: adaptive read %d bytes, forced-full %d", buffered, adaptive.IO.ReadBytes(), full.IO.ReadBytes())
		}
		if adaptive.Iterations != full.Iterations {
			t.Fatalf("buffered=%t: adaptive ran %d iterations, forced-full %d", buffered, adaptive.Iterations, full.Iterations)
		}
		requireIdenticalOutputs(t, full.Outputs, adaptive.Outputs)
	}
}

func TestCrossIterationReducesIO(t *testing.T) {
	// PageRank under forced-full I/O: FCIU reads upper-triangle sub-blocks
	// once per two iterations, so disabling cross-iteration (b1) must read
	// strictly more.
	g, err := gen.RMAT(8, 8, gen.Graph500, 6)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 6} }

	layoutA := buildLayout(t, g, 4)
	fciu, err := core.Run(layoutA, prog(), core.Options{ForceModel: core.ForceFull})
	if err != nil {
		t.Fatal(err)
	}
	layoutB := buildLayout(t, g, 4)
	b1, err := core.Run(layoutB, prog(), core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	if fciu.IO.ReadBytes() >= b1.IO.ReadBytes() {
		t.Fatalf("FCIU read %d bytes, b1 %d", fciu.IO.ReadBytes(), b1.IO.ReadBytes())
	}
	compareOutputs(t, "fciu-vs-b1", fciu.Outputs, b1.Outputs, 1e-9)
}

func TestBufferingReducesIO(t *testing.T) {
	// With a generous buffer, secondary sub-blocks are served from memory
	// in FCIU's second half: read volume must drop (Figure 12).
	g, err := gen.RMAT(8, 10, gen.Graph500, 8)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 6} }

	layoutA := buildLayout(t, g, 4)
	buffered, err := core.Run(layoutA, prog(), core.Options{ForceModel: core.ForceFull, BufferBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	layoutB := buildLayout(t, g, 4)
	unbuffered, err := core.Run(layoutB, prog(), core.Options{ForceModel: core.ForceFull})
	if err != nil {
		t.Fatal(err)
	}
	if buffered.IO.ReadBytes() >= unbuffered.IO.ReadBytes() {
		t.Fatalf("buffered read %d bytes, unbuffered %d", buffered.IO.ReadBytes(), unbuffered.IO.ReadBytes())
	}
	if buffered.Buffer.Hits == 0 {
		t.Fatal("buffer recorded no hits")
	}
	if unbuffered.Buffer.Hits != 0 {
		t.Fatal("zero-capacity buffer recorded hits")
	}
	compareOutputs(t, "buffered-vs-not", buffered.Outputs, unbuffered.Outputs, 1e-9)
}

func TestResultMetadata(t *testing.T) {
	layout := buildLayout(t, paperGraph(), 2)
	res, err := core.Run(layout, &algorithms.ConnectedComponents{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "cc" {
		t.Fatalf("Algorithm = %s", res.Algorithm)
	}
	if !res.Converged {
		t.Fatal("CC on 6 vertices did not converge")
	}
	if res.ExecTime() != res.IOTime()+res.ComputeTime {
		t.Fatal("ExecTime identity violated")
	}
	if res.IO.TotalBytes() == 0 {
		t.Fatal("no I/O recorded")
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestForcedModelStillRecordsDecisions(t *testing.T) {
	layout := buildLayout(t, gen.Chain(40), 2)
	res, err := core.Run(layout, &algorithms.BFS{Source: 0}, core.Options{ForceModel: core.ForceOnDemand})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != res.Iterations {
		t.Fatalf("forced on-demand: %d decisions for %d iterations", len(res.Decisions), res.Iterations)
	}
	var _ = iosched.OnDemandIO
}

// TestUnbufferableOffersStillCounted: a secondary sub-block that cannot fit
// the buffer is offered without its priority being computed — and, on a delta
// layout, without its payload being kept: it is read through the pooled
// buffers — and must still show up as the miss and the rejection it always
// was.
func TestUnbufferableOffersStillCounted(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		for name, opts := range map[string]core.Options{
			"no-capacity": {ForceModel: core.ForceFull},
			"too-small":   {ForceModel: core.ForceFull, BufferBytes: 1},
		} {
			res, err := core.Run(codecLayout(t, g, 4, codec), &algorithms.PageRank{Iterations: 4}, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", codec, name, err)
			}
			b := res.Buffer
			if b.Misses == 0 || b.Rejections != b.Misses || b.Hits != 0 || b.Insertions != 0 {
				t.Errorf("%s/%s: buffer stats %+v, want every secondary load a miss and a rejection", codec, name, b)
			}
			if res.SEM.CompressedBytes != 0 {
				t.Errorf("%s/%s: %d payload bytes admitted to a buffer that holds none", codec, name, res.SEM.CompressedBytes)
			}
		}
	}
}
