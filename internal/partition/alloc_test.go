package partition

import (
	"runtime/debug"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// oneBlockOverlay overlays sub-block (0, 0) with a fixed set of mutations.
type oneBlockOverlay []OverlayEdge

func (o oneBlockOverlay) BlockDelta(i, j int) []OverlayEdge {
	if i == 0 && j == 0 {
		return o
	}
	return nil
}
func (oneBlockOverlay) BlockVersion(i, j int) int64 { return 1 }
func (oneBlockOverlay) AdjustDegrees([]uint32)      {}

// TestLoadSubBlockAllocationsIndependentOfSize: a full load decodes — and,
// under an overlay, merges — into memory sized once from a count the layout
// already holds, so what it allocates is a small constant however many edges
// the block has. One append-grown slice on the way would make the count
// climb with log(edges).
func TestLoadSubBlockAllocationsIndependentOfSize(t *testing.T) {
	// A collection started by a large allocation does some allocating of its
	// own; keep it out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	load := func(scale int, overlay bool) float64 {
		g, err := gen.RMAT(scale, 16, gen.Graph500, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Build(testDevice(t), g, 1, WithCodec(graph.CodecDelta))
		if err != nil {
			t.Fatal(err)
		}
		want := l.Meta.SubBlockEdges(0, 0)
		if overlay {
			// One insertion past every base edge, one tombstone for a key no
			// base edge has: the merged count Meta must carry is base + 1.
			last := graph.VertexID(g.NumVertices - 1)
			l.Overlay = oneBlockOverlay{{Edge: graph.Edge{Src: 0, Dst: 0}, Del: true}, {Edge: graph.Edge{Src: last, Dst: last, Weight: 1}}}
			base, err := l.LoadSubBlock(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want = int64(len(base))
			l.Meta.EdgeCounts[0][0] = want
		}
		return testing.AllocsPerRun(5, func() {
			edges, err := l.LoadSubBlock(0, 0)
			if err != nil || int64(len(edges)) != want {
				t.Fatalf("scale %d overlay %t: %d edges, %v; want %d", scale, overlay, len(edges), err, want)
			}
		})
	}
	// The count is process-wide and the race detector's runtime adds a few of
	// its own, now and then; an append-grown slice adds ten and more between
	// these two sizes (the parent of this test read 22 and 44, 41 and 80).
	for _, overlay := range []bool{false, true} {
		small, large := load(8, overlay), load(14, overlay)
		if max(small, large) > 24 || max(small, large)-min(small, large) > 4 {
			t.Errorf("overlay %t: %v allocations for 4Ki edges, %v for 256Ki; want the same small constant", overlay, small, large)
		}
	}
}
