package core

import (
	"slices"
	"testing"

	"github.com/graphsd/graphsd/internal/graph"
)

// TestIndexRunsAnyOrder: a value-order phase finds each source's diagonal run
// through indexRuns whatever order the block holds its edges in. Layouts write
// cells in source order, which indexRuns uses in place; a block in any other
// order is placed by source, each source's edges kept in block order.
func TestIndexRunsAnyOrder(t *testing.T) {
	const lo, hi = 64, 72
	ordered := []graph.Edge{{Src: 64, Dst: 70}, {Src: 64, Dst: 65}, {Src: 66, Dst: 64, Weight: 2}, {Src: 71, Dst: 71}}
	shuffled := []graph.Edge{{Src: 71, Dst: 71}, {Src: 64, Dst: 70}, {Src: 66, Dst: 64, Weight: 2}, {Src: 64, Dst: 65}}
	for name, edges := range map[string][]graph.Edge{"ordered": ordered, "shuffled": shuffled} {
		a := &asyncRun{}
		runs, err := a.indexRuns(block{edges: edges}, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if aliased := &runs[0] == &edges[0]; aliased != (name == "ordered") {
			t.Errorf("%s: runs in the block's own memory: %t", name, aliased)
		}
		for v := lo; v < hi; v++ {
			var want []graph.Edge
			for _, ed := range edges {
				if int(ed.Src) == v {
					want = append(want, ed)
				}
			}
			if got := runs[a.diagOff[v-lo]:a.diagOff[v-lo+1]]; !slices.Equal(got, want) {
				t.Errorf("%s: source %d's run is %v, want %v", name, v, got, want)
			}
		}
	}
}
