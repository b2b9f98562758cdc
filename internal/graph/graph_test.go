package graph

import (
	"testing"
	"testing/quick"
)

func tinyGraph() *Graph {
	// The example graph from the paper's Figure 2, re-indexed to 0-based:
	// vertices 0..5, two intervals {0,1,2} and {3,4,5}.
	return &Graph{
		NumVertices: 6,
		Edges: []Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 4},
			{Src: 1, Dst: 2}, {Src: 2, Dst: 0},
			{Src: 2, Dst: 3}, {Src: 3, Dst: 5},
			{Src: 4, Dst: 2}, {Src: 5, Dst: 4},
		},
	}
}

func TestValidate(t *testing.T) {
	g := tinyGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad := &Graph{NumVertices: 3, Edges: []Edge{{Src: 0, Dst: 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	neg := &Graph{NumVertices: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestDegrees(t *testing.T) {
	g := tinyGraph()
	out := g.OutDegrees()
	in := g.InDegrees()
	wantOut := []uint32{2, 1, 2, 1, 1, 1}
	wantIn := []uint32{1, 1, 2, 1, 2, 1}
	for v := range wantOut {
		if out[v] != wantOut[v] {
			t.Errorf("out-degree of %d = %d, want %d", v, out[v], wantOut[v])
		}
		if in[v] != wantIn[v] {
			t.Errorf("in-degree of %d = %d, want %d", v, in[v], wantIn[v])
		}
	}
	var sumOut, sumIn uint32
	for v := range out {
		sumOut += out[v]
		sumIn += in[v]
	}
	if int(sumOut) != g.NumEdges() || int(sumIn) != g.NumEdges() {
		t.Fatalf("degree sums %d/%d != edge count %d", sumOut, sumIn, g.NumEdges())
	}
}

func TestSortBySrc(t *testing.T) {
	g := &Graph{
		NumVertices: 4,
		Edges: []Edge{
			{Src: 3, Dst: 0}, {Src: 1, Dst: 2}, {Src: 1, Dst: 0}, {Src: 0, Dst: 3},
		},
	}
	g.SortBySrc()
	for i := 1; i < len(g.Edges); i++ {
		a, b := g.Edges[i-1], g.Edges[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst) {
			t.Fatalf("edges not sorted at %d: %v before %v", i, a, b)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := tinyGraph()
	c := g.Clone()
	c.Edges[0].Dst = 5
	if g.Edges[0].Dst == 5 {
		t.Fatal("clone shares edge storage")
	}
}

func TestBytes(t *testing.T) {
	g := tinyGraph()
	if got := g.Bytes(); got != int64(8*EdgeBytes) {
		t.Fatalf("unweighted Bytes = %d, want %d", got, 8*EdgeBytes)
	}
	g.Weighted = true
	if got := g.Bytes(); got != int64(8*(EdgeBytes+WeightBytes)) {
		t.Fatalf("weighted Bytes = %d, want %d", got, 8*(EdgeBytes+WeightBytes))
	}
}

func TestBuildCSR(t *testing.T) {
	g := tinyGraph()
	csr := BuildCSR(g)
	if len(csr.Dst) != g.NumEdges() {
		t.Fatalf("CSR edges = %d, want %d", len(csr.Dst), g.NumEdges())
	}
	wantNeighbors := map[VertexID][]VertexID{
		0: {1, 4}, 1: {2}, 2: {0, 3}, 3: {5}, 4: {2}, 5: {4},
	}
	for v, want := range wantNeighbors {
		got := csr.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("neighbors(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("neighbors(%d) = %v, want %v", v, got, want)
			}
		}
	}
	if csr.Weights(0) != nil {
		t.Fatal("unweighted CSR returned weights")
	}
}

func TestBuildCSRWeighted(t *testing.T) {
	g := &Graph{
		NumVertices: 3,
		Weighted:    true,
		Edges: []Edge{
			{Src: 0, Dst: 1, Weight: 2.5},
			{Src: 0, Dst: 2, Weight: 1.5},
			{Src: 2, Dst: 0, Weight: 7},
		},
	}
	csr := BuildCSR(g)
	w := csr.Weights(0)
	if len(w) != 2 || w[0] != 2.5 || w[1] != 1.5 {
		t.Fatalf("Weights(0) = %v", w)
	}
	if got := csr.Weights(1); len(got) != 0 {
		t.Fatalf("Weights(1) = %v, want empty", got)
	}
}

// Property: CSR preserves every edge exactly once, for arbitrary graphs.
func TestPropertyCSRPreservesEdges(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 64
		g := &Graph{NumVertices: n}
		for i := 0; i+1 < len(raw); i += 2 {
			g.Edges = append(g.Edges, Edge{
				Src: VertexID(raw[i] % n), Dst: VertexID(raw[i+1] % n),
			})
		}
		csr := BuildCSR(g)
		type pair struct{ s, d VertexID }
		counts := map[pair]int{}
		for _, e := range g.Edges {
			counts[pair{e.Src, e.Dst}]++
		}
		for v := VertexID(0); v < n; v++ {
			for _, d := range csr.Neighbors(v) {
				counts[pair{v, d}]--
			}
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
