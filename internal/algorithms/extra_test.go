package algorithms

import (
	"math"
	"testing"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func buildTestLayout(t *testing.T, g *graph.Graph, p int) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, g, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWidestPathOnDiamond(t *testing.T) {
	// 0 -> 1 (cap 5) -> 3 (cap 2)  => bottleneck 2
	// 0 -> 2 (cap 3) -> 3 (cap 3)  => bottleneck 3 (wider)
	g := &graph.Graph{
		NumVertices: 4,
		Weighted:    true,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1, Weight: 5},
			{Src: 1, Dst: 3, Weight: 2},
			{Src: 0, Dst: 2, Weight: 3},
			{Src: 2, Dst: 3, Weight: 3},
		},
	}
	out, _ := core.RunReference(g, &WidestPath{Source: 0}, 0)
	if !math.IsInf(out[0], 1) {
		t.Fatalf("source capacity = %v", out[0])
	}
	if out[1] != 5 || out[2] != 3 {
		t.Fatalf("direct capacities = %v %v", out[1], out[2])
	}
	if out[3] != 3 {
		t.Fatalf("bottleneck(3) = %v, want 3 (via vertex 2)", out[3])
	}
}

func TestWidestPathUnreachable(t *testing.T) {
	g := gen.Weighted(gen.Chain(5), 4, 1)
	out, _ := core.RunReference(g, &WidestPath{Source: 2}, 0)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("upstream vertices reached: %v %v", out[0], out[1])
	}
	if out[3] == 0 || out[4] == 0 {
		t.Fatal("downstream vertices not reached")
	}
}

func TestReachabilityMatchesBFSCover(t *testing.T) {
	g, err := gen.RMAT(8, 6, gen.Graph500, 31)
	if err != nil {
		t.Fatal(err)
	}
	reach, _ := core.RunReference(g, &Reachability{Source: 0}, 0)
	depth, _ := core.RunReference(g, &BFS{Source: 0}, 0)
	for v := range reach {
		reached := reach[v] == 1 || v == 0
		byDepth := !math.IsInf(depth[v], 1)
		if reached != byDepth {
			t.Fatalf("vertex %d: reach=%v bfs-depth=%v", v, reach[v], depth[v])
		}
	}
}

func TestExtraProgramsOnEngine(t *testing.T) {
	// The extension algorithms must run identically on the out-of-core
	// engine; exercised through the full config matrix elsewhere, spot-
	// checked here.
	g := gen.Weighted(gen.Chain(30), 9, 2)
	want, _ := core.RunReference(g, &WidestPath{Source: 0}, 0)
	layout := buildTestLayout(t, g, 3)
	res, err := core.Run(layout, &WidestPath{Source: 0}, core.Options{DefaultBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		a, b := res.Outputs[v], want[v]
		if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
			t.Fatalf("vertex %d: %v want %v", v, a, b)
		}
	}
}

// symmetrize returns a new graph with every edge mirrored (u→v adds v→u,
// preserving the weight), turning directed inputs into undirected ones for
// algorithms with undirected semantics (connected components in the
// undirected sense). Existing reverse edges are not deduplicated — grid
// layouts and label propagation are insensitive to parallel edges.
func symmetrize(g *graph.Graph) *graph.Graph {
	out := &graph.Graph{
		NumVertices: g.NumVertices,
		Weighted:    g.Weighted,
		Edges:       make([]graph.Edge, 0, 2*len(g.Edges)),
	}
	out.Edges = append(out.Edges, g.Edges...)
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return out
}

func TestSymmetrize(t *testing.T) {
	g := &graph.Graph{
		NumVertices: 3,
		Weighted:    true,
		Edges:       []graph.Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}},
	}
	s := symmetrize(g)
	if s.NumEdges() != 4 {
		t.Fatalf("symmetrized edges = %d, want 4", s.NumEdges())
	}
	if s.Edges[2] != (graph.Edge{Src: 1, Dst: 0, Weight: 2}) {
		t.Fatalf("mirror edge = %v", s.Edges[2])
	}
	// Original untouched.
	if g.NumEdges() != 2 {
		t.Fatal("symmetrize mutated its input")
	}
	// CC on the symmetrized chain collapses to one component.
	out, _ := core.RunReference(symmetrize(gen.Chain(10)), &ConnectedComponents{}, 0)
	for v, l := range out {
		if l != 0 {
			t.Fatalf("vertex %d label %v after symmetrized CC", v, l)
		}
	}
}

func TestByNameExtras(t *testing.T) {
	for _, name := range []string{"widestpath", "wp", "reach", "reachability"} {
		p, err := ByName(name, 3)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		switch prog := p.(type) {
		case *WidestPath:
			if prog.Source != 3 {
				t.Fatal("source not set")
			}
		case *Reachability:
			if prog.Source != 3 {
				t.Fatal("source not set")
			}
		default:
			t.Fatalf("ByName(%s) returned %T", name, p)
		}
	}
}
