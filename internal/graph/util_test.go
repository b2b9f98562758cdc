package graph

import "testing"

func TestDedupe(t *testing.T) {
	g := &Graph{
		NumVertices: 3,
		Weighted:    true,
		Edges: []Edge{
			{Src: 0, Dst: 1, Weight: 2},
			{Src: 0, Dst: 1, Weight: 2}, // exact duplicate
			{Src: 0, Dst: 1, Weight: 3}, // same endpoints, different weight: kept
			{Src: 1, Dst: 2, Weight: 1},
			{Src: 0, Dst: 1, Weight: 2}, // duplicate again
		},
	}
	out := Dedupe(g)
	if out.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", out.NumEdges())
	}
	if out.Edges[0] != (Edge{Src: 0, Dst: 1, Weight: 2}) {
		t.Fatalf("first-occurrence order broken: %v", out.Edges[0])
	}
	if out.Edges[1] != (Edge{Src: 0, Dst: 1, Weight: 3}) {
		t.Fatalf("distinct-weight edge dropped: %v", out.Edges[1])
	}
}

func TestDedupeEmpty(t *testing.T) {
	out := Dedupe(&Graph{NumVertices: 5})
	if out.NumEdges() != 0 || out.NumVertices != 5 {
		t.Fatalf("empty dedupe: %+v", out)
	}
}
