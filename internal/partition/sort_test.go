package partition

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"github.com/graphsd/graphsd/internal/graph"
)

// compareEdgeKeys orders two edges by a major and a minor endpoint, then by
// the bits of their weights: the total order of a layout cell (DESIGN.md §7)
// written as a comparison, the oracle graph.EdgeSorter is held to.
func compareEdgeKeys(aMajor, aMinor graph.VertexID, aWeight float32, bMajor, bMinor graph.VertexID, bWeight float32) int {
	if aMajor != bMajor {
		return cmp.Compare(aMajor, bMajor)
	}
	if aMinor != bMinor {
		return cmp.Compare(aMinor, bMinor)
	}
	return cmp.Compare(math.Float32bits(aWeight), math.Float32bits(bWeight))
}

// sortEdgesBySrc sorts edges by (source, destination, weight bits) with a
// comparison sort.
func sortEdgesBySrc(edges []graph.Edge) {
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		return compareEdgeKeys(a.Src, a.Dst, a.Weight, b.Src, b.Dst, b.Weight)
	})
}

// sortEdgesByDst sorts edges by (destination, source, weight bits) with a
// comparison sort.
func sortEdgesByDst(edges []graph.Edge) {
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		return compareEdgeKeys(a.Dst, a.Src, a.Weight, b.Dst, b.Src, b.Weight)
	})
}

// checkSorterMatchesOracle sorts edges in both majors with s and with the
// comparison oracle and fails unless the two agree bit for bit.
func checkSorterMatchesOracle(t *testing.T, s *graph.EdgeSorter, name string, edges []graph.Edge) {
	t.Helper()
	for _, major := range []struct {
		name   string
		radix  func([]graph.Edge)
		oracle func([]graph.Edge)
	}{
		{"src", s.BySrc, sortEdgesBySrc},
		{"dst", s.ByDst, sortEdgesByDst},
	} {
		got, want := slices.Clone(edges), slices.Clone(edges)
		major.radix(got)
		major.oracle(want)
		for k := range want {
			g, w := got[k], want[k]
			if g.Src != w.Src || g.Dst != w.Dst || math.Float32bits(g.Weight) != math.Float32bits(w.Weight) {
				t.Fatalf("%s, %s-major: edge %d of %d is %v (weight bits %#x), the comparison sort has %v (%#x)",
					name, major.name, k, len(edges), g, math.Float32bits(g.Weight), w, math.Float32bits(w.Weight))
			}
		}
	}
}

// TestEdgeSorterMatchesComparisonSort holds the radix sort every builder
// orders its cells with to the comparison sort it replaced, in both majors:
// the same edges in the same order, weight bits included, so no layout byte
// depends on which of the two ran.
func TestEdgeSorterMatchesComparisonSort(t *testing.T) {
	nan1 := math.Float32frombits(0x7fc00001)
	nan2 := math.Float32frombits(0xffc00000)
	negZero := float32(math.Copysign(0, -1))
	const top = math.MaxUint32
	cases := map[string][]graph.Edge{
		"empty":  nil,
		"single": {{Src: 7, Dst: 3, Weight: 1.5}},
		"parallel edges, weights that differ in bits only": {
			{Src: 2, Dst: 1, Weight: nan1}, {Src: 2, Dst: 1, Weight: 0}, {Src: 2, Dst: 1, Weight: nan2},
			{Src: 2, Dst: 1, Weight: negZero}, {Src: 2, Dst: 1, Weight: float32(math.Inf(-1))},
			{Src: 2, Dst: 1, Weight: 0}, {Src: 2, Dst: 1, Weight: float32(math.Inf(1))}, {Src: 2, Dst: 1, Weight: -1},
		},
		"ids at zero and near MaxUint32": {
			{Src: top, Dst: 0, Weight: 1}, {Src: 0, Dst: top}, {Src: top - 1, Dst: top},
			{Src: top, Dst: top}, {Src: 0, Dst: 0}, {Src: top, Dst: 0}, {Src: 1, Dst: top - 65536},
		},
		"weights 1 and 2, whose bits share their low 16": {
			{Src: 1, Dst: 1, Weight: 2}, {Src: 1, Dst: 1, Weight: 1}, {Src: 1, Dst: 1, Weight: 2},
		},
	}
	rng := rand.New(rand.NewSource(42))
	oneSource := make([]graph.Edge, 3000)
	for k := range oneSource {
		oneSource[k] = graph.Edge{Src: 99, Dst: graph.VertexID(rng.Intn(50)), Weight: float32(rng.Intn(4))}
	}
	cases["all one source"] = oneSource
	for _, span := range []int{300, 65536, 65537, 1 << 20} {
		edges := make([]graph.Edge, 5000)
		for k := range edges {
			edges[k] = graph.Edge{
				Src:    graph.VertexID(1000 + rng.Intn(span)),
				Dst:    graph.VertexID(rng.Intn(span)),
				Weight: math.Float32frombits(rng.Uint32()),
			}
		}
		cases["random, span "+strconv.Itoa(span)] = edges
		unweighted := slices.Clone(edges)
		for k := range unweighted {
			unweighted[k].Weight = 0
			unweighted[k].Dst %= 8 // many parallel edges
		}
		cases["unweighted, span "+strconv.Itoa(span)] = unweighted
	}
	var s graph.EdgeSorter // one sorter across every case, as a builder keeps it
	for name, edges := range cases {
		t.Run(name, func(t *testing.T) { checkSorterMatchesOracle(t, &s, name, edges) })
	}
}

// FuzzEdgeSorter decodes fuzzed bytes as 12-byte (src, dst, weight bits)
// records and holds graph.EdgeSorter to the comparison sort on them in both
// majors. The lead byte narrows the ids to a span, so inputs hit narrow cells,
// wide ones and ids near MaxUint32 alike.
func FuzzEdgeSorter(f *testing.F) {
	rec := func(src, dst, w uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, src)
		b = binary.LittleEndian.AppendUint32(b, dst)
		return binary.LittleEndian.AppendUint32(b, w)
	}
	f.Add([]byte{})
	f.Add(append([]byte{0}, rec(1, 2, 0)...))
	f.Add(append(append([]byte{0}, rec(5, 5, 0x7fc00001)...), rec(5, 5, 0x80000000)...))
	f.Add(append(append([]byte{3}, rec(math.MaxUint32, 0, 1)...), rec(0, math.MaxUint32, 0)...))
	var s graph.EdgeSorter // reused across inputs, as a builder reuses it across cells
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkSorterMatchesOracle(t, &s, "fuzz", nil)
			return
		}
		mask := []uint32{0xff, 0xffff, 0x1ffff, math.MaxUint32}[data[0]%4]
		var edges []graph.Edge
		for b := data[1:]; len(b) >= 12; b = b[12:] {
			edges = append(edges, graph.Edge{
				Src:    graph.VertexID(binary.LittleEndian.Uint32(b) & mask),
				Dst:    graph.VertexID(binary.LittleEndian.Uint32(b[4:]) & mask),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
			})
		}
		checkSorterMatchesOracle(t, &s, "fuzz", edges)
	})
}
