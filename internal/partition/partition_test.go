package partition

import (
	"testing"
	"testing/quick"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

func testDevice(t *testing.T) *storage.Device {
	t.Helper()
	d, err := storage.OpenDevice(t.TempDir(), storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// paperGraph is the 6-vertex example of the paper's Figure 2 (0-based).
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

func TestIntervals(t *testing.T) {
	m := Manifest{NumVertices: 10, P: 3}
	// per = ceil(10/3) = 4 -> [0,4) [4,8) [8,10)
	cases := []struct{ i, lo, hi int }{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}
	for _, c := range cases {
		lo, hi := m.Interval(c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Interval(%d) = [%d,%d), want [%d,%d)", c.i, lo, hi, c.lo, c.hi)
		}
		if m.IntervalLen(c.i) != c.hi-c.lo {
			t.Errorf("IntervalLen(%d) = %d", c.i, m.IntervalLen(c.i))
		}
	}
	for v := 0; v < 10; v++ {
		i := m.IntervalOf(graph.VertexID(v))
		lo, hi := m.Interval(i)
		if v < lo || v >= hi {
			t.Errorf("IntervalOf(%d) = %d, but interval is [%d,%d)", v, i, lo, hi)
		}
	}
}

func TestIntervalPanicsOutOfRange(t *testing.T) {
	m := Manifest{NumVertices: 10, P: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("Interval(2) did not panic")
		}
	}()
	m.Interval(2)
}

func TestChooseP(t *testing.T) {
	cases := []struct {
		bytes, budget int64
		maxP, want    int
	}{
		{1000, 100, 0, 10},
		{1000, 1000, 0, 1},
		{1001, 1000, 0, 2},
		{1000, 0, 0, 1},
		{0, 100, 0, 1},
		{100000, 10, 16, 16},
	}
	for _, c := range cases {
		if got := ChooseP(c.bytes, c.budget, c.maxP); got != c.want {
			t.Errorf("ChooseP(%d,%d,%d) = %d, want %d", c.bytes, c.budget, c.maxP, got, c.want)
		}
	}
}

func TestBuildAndLoadRoundTrip(t *testing.T) {
	dev := testDevice(t)
	g := paperGraph()
	l, err := Build(dev, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.System != "graphsd" || l.Meta.P != 2 || l.Meta.NumEdges != 8 {
		t.Fatalf("manifest = %+v", l.Meta)
	}

	// Reload from disk.
	l2, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Meta.Validate(); err != nil {
		t.Fatal(err)
	}

	// Figure 2 of the paper: with intervals {0,1,2} and {3,4,5} the grid is
	// (0,0): 0->1, 1->2, 2->0   (0,1): 0->4, 2->3
	// (1,0): 4->2               (1,1): 3->5, 5->4
	wantCounts := [][]int64{{3, 2}, {1, 2}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if l2.Meta.SubBlockEdges(i, j) != wantCounts[i][j] {
				t.Errorf("sub-block (%d,%d) edges = %d, want %d", i, j,
					l2.Meta.SubBlockEdges(i, j), wantCounts[i][j])
			}
		}
	}

	edges, err := l2.LoadSubBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	if len(edges) != len(want) {
		t.Fatalf("sub-block (0,0) = %v", edges)
	}
	for k := range want {
		if edges[k] != want[k] {
			t.Fatalf("sub-block (0,0) = %v, want %v", edges, want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	dev := testDevice(t)
	if _, err := Build(dev, paperGraph(), 0); err == nil {
		t.Error("P=0 accepted")
	}
	bad := &graph.Graph{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 5}}}
	if _, err := Build(dev, bad, 1); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestIndexLocatesEveryVertex(t *testing.T) {
	dev := testDevice(t)
	g, err := gen.RMAT(8, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	l, err := Build(dev, g, p)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct every vertex's per-sub-block edges via the index and
	// compare with a direct filter of the original edge list.
	for i := 0; i < p; i++ {
		lo, hi := l.Meta.Interval(i)
		for j := 0; j < p; j++ {
			idx, err := l.LoadIndex(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if len(idx.Rec) != hi-lo+1 {
				t.Fatalf("index (%d,%d) has %d entries, want %d", i, j, len(idx.Rec), hi-lo+1)
			}
			r, err := l.OpenSubBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			var buf []byte
			for v := lo; v < hi; v++ {
				var want []graph.Edge
				for _, e := range g.Edges {
					if e.Src == graph.VertexID(v) && l.Meta.IntervalOf(e.Dst) == j {
						want = append(want, e)
					}
				}
				var got []graph.Edge
				if r != nil {
					got, buf, err = l.ReadVertexEdges(r, idx, i, graph.VertexID(v), buf)
					if err != nil {
						t.Fatal(err)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("vertex %d sub-block (%d,%d): %d edges, want %d", v, i, j, len(got), len(want))
				}
				for _, e := range got {
					if e.Src != graph.VertexID(v) || l.Meta.IntervalOf(e.Dst) != j {
						t.Fatalf("vertex %d got foreign edge %v", v, e)
					}
				}
			}
			if r != nil {
				r.Close()
			}
		}
	}
}

func TestReadVertexEdgesOutsideInterval(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, paperGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := l.LoadIndex(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.OpenSubBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := l.ReadVertexEdges(r, idx, 0, 5, nil); err == nil {
		t.Fatal("vertex outside interval accepted")
	}
}

func TestLoadDegrees(t *testing.T) {
	dev := testDevice(t)
	g := paperGraph()
	l, err := Build(dev, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := l.LoadDegrees()
	if err != nil {
		t.Fatal(err)
	}
	want := g.OutDegrees()
	for v := range want {
		if deg[v] != want[v] {
			t.Fatalf("degree(%d) = %d, want %d", v, deg[v], want[v])
		}
	}
}

func TestEmptySubBlocksCostNothing(t *testing.T) {
	dev := testDevice(t)
	// A chain graph partitioned with P=4 leaves many empty off-diagonal blocks.
	g := gen.Chain(16)
	l, err := Build(dev, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := dev.Stats()
	edges, err := l.LoadSubBlock(0, 3) // chain never jumps 3 intervals
	if err != nil || edges != nil {
		t.Fatalf("empty block load = %v, %v", edges, err)
	}
	r, err := l.OpenSubBlock(0, 3)
	if err != nil || r != nil {
		t.Fatalf("empty block open = %v, %v", r, err)
	}
	if io := dev.Stats().Sub(base); io.TotalOps() != 0 {
		t.Fatalf("empty block touched the device: %v", io)
	}
}

func TestBuildHUSGraphLayout(t *testing.T) {
	dev := testDevice(t)
	g := paperGraph()
	l, err := BuildHUSGraph(dev, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.System != "husgraph" {
		t.Fatalf("system = %s", l.Meta.System)
	}
	// Row 0 holds edges with src in {0,1,2}, sorted by src.
	row0 := loadRow(t, l, 0)
	if len(row0) != 5 {
		t.Fatalf("row 0 has %d edges, want 5", len(row0))
	}
	for k := 1; k < len(row0); k++ {
		if row0[k-1].Src > row0[k].Src {
			t.Fatal("row 0 not sorted by source")
		}
	}
	idx, err := l.LoadIndex(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Rec) != 4 { // 3 vertices + 1
		t.Fatalf("row index len = %d", len(idx.Rec))
	}
	// Vertex 2 has 2 edges in row 0.
	if idx.Rec[3]-idx.Rec[2] != 2 {
		t.Fatalf("vertex 2 edge count via index = %d", idx.Rec[3]-idx.Rec[2])
	}
	// Column 1 holds edges with dst in {3,4,5}, sorted by dst.
	col1, err := l.LoadSubBlock(-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(col1) != 4 { // 0->4, 2->3, 3->5, 5->4
		t.Fatalf("col 1 has %d edges, want 4", len(col1))
	}
	for k := 1; k < len(col1); k++ {
		if col1[k-1].Dst > col1[k].Dst {
			t.Fatal("col 1 not sorted by destination")
		}
	}
	// Both copies exist: total written edge records ~ 2x graph size.
	total := int64(0)
	for i := 0; i < 2; i++ {
		col, err := l.LoadSubBlock(-1, i)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(loadRow(t, l, i)) + len(col))
	}
	if total != 16 {
		t.Fatalf("HUS layout stores %d records, want 16 (two copies)", total)
	}
}

// loadRow decodes HUS-Graph row block i whole. A run never does — it reads
// rows by vertex — so the layout offers no such load.
func loadRow(t *testing.T, l *Layout, i int) []graph.Edge {
	t.Helper()
	data, err := l.Dev.ReadFile(RowName(i))
	if err != nil {
		t.Fatal(err)
	}
	edges, err := graph.AppendEdges(nil, data, l.Meta.Weighted)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestBuildLumosLayoutUnsorted(t *testing.T) {
	dev := testDevice(t)
	g := paperGraph()
	l, err := BuildLumos(dev, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.System != "lumos" {
		t.Fatalf("system = %s", l.Meta.System)
	}
	// Lumos layout has no index files.
	if dev.Exists(IndexName(0, 0)) {
		t.Fatal("lumos layout wrote an index")
	}
	// But the grid payloads exist and contain the right edges.
	var total int
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			edges, err := l.LoadSubBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			total += len(edges)
			for _, e := range edges {
				if l.Meta.IntervalOf(e.Src) != i || l.Meta.IntervalOf(e.Dst) != j {
					t.Fatalf("edge %v in wrong cell (%d,%d)", e, i, j)
				}
			}
		}
	}
	if total != 8 {
		t.Fatalf("lumos grid stores %d edges, want 8", total)
	}
}

func TestPreprocessingWriteVolumeOrdering(t *testing.T) {
	// Figure 8's driver: HUS-Graph writes two copies so its write volume
	// must exceed GraphSD's, which ties with Lumos on payload (one copy)
	// but adds index files.
	g, err := gen.RMAT(9, 8, gen.Graph500, 1)
	if err != nil {
		t.Fatal(err)
	}
	volumes := map[string]int64{}
	for name, build := range map[string]func(*storage.Device, *graph.Graph, int, ...BuildOption) (*Layout, error){
		"graphsd": Build, "husgraph": BuildHUSGraph, "lumos": BuildLumos,
	} {
		dev := testDevice(t)
		if _, err := build(dev, g, 4); err != nil {
			t.Fatal(err)
		}
		volumes[name] = dev.Stats().WriteBytes()
	}
	if volumes["husgraph"] <= volumes["graphsd"] {
		t.Fatalf("HUS write volume %d not above GraphSD %d", volumes["husgraph"], volumes["graphsd"])
	}
	if volumes["graphsd"] <= volumes["lumos"] {
		t.Fatalf("GraphSD write volume %d not above Lumos %d", volumes["graphsd"], volumes["lumos"])
	}
}

func TestManifestValidateRejectsCorruption(t *testing.T) {
	dev := testDevice(t)
	if _, err := Build(dev, paperGraph(), 2); err != nil {
		t.Fatal(err)
	}
	// Corrupt the manifest's edge counts.
	if err := dev.WriteFile(ManifestName, []byte(`{"format_version":1,"system":"graphsd","num_vertices":6,"num_edges":9,"p":2,"edge_counts":[[3,2],[1,2]]}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dev); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if err := dev.WriteFile(ManifestName, []byte(`not json`)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dev); err == nil {
		t.Fatal("non-JSON manifest accepted")
	}
}

// TestChargeValues: one transfer per call of exactly the chosen intervals'
// values; every interval is the whole array, none is no transfer at all.
func TestChargeValues(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, paperGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		in     func(int) bool
		vertex int64
	}{
		{"every interval", func(int) bool { return true }, 6},
		{"the second", func(i int) bool { return i == 1 }, int64(l.Meta.IntervalLen(1))},
		{"none", func(int) bool { return false }, 0},
	} {
		base := dev.Stats()
		l.ChargeValues(storage.SeqRead, c.in)
		l.ChargeValues(storage.SeqWrite, c.in)
		s := dev.Stats().Sub(base)
		want, ops := c.vertex*graph.VertexValueBytes, min(c.vertex, 1)
		if s.Bytes[storage.SeqRead] != want || s.Bytes[storage.SeqWrite] != want ||
			s.Ops[storage.SeqRead] != ops || s.Ops[storage.SeqWrite] != ops {
			t.Errorf("%s: charged %+v, want %d bytes in %d op each way", c.name, s, want, ops)
		}
	}
}

// Property: for random graphs and P, the grid partitions the edge set — every
// edge lands in exactly the cell of its (src,dst) intervals and counts sum
// to |E|.
func TestPropertyGridPartitions(t *testing.T) {
	f := func(raw []uint32, pRaw uint8) bool {
		const n = 60
		p := int(pRaw)%6 + 1
		g := &graph.Graph{NumVertices: n}
		for k := 0; k+1 < len(raw); k += 2 {
			g.Edges = append(g.Edges, graph.Edge{
				Src: graph.VertexID(raw[k] % n), Dst: graph.VertexID(raw[k+1] % n),
			})
		}
		dev, err := storage.OpenDevice(t.TempDir(), storage.HDD)
		if err != nil {
			return false
		}
		l, err := Build(dev, g, p)
		if err != nil {
			return false
		}
		var total int64
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				edges, err := l.LoadSubBlock(i, j)
				if err != nil {
					return false
				}
				if int64(len(edges)) != l.Meta.SubBlockEdges(i, j) {
					return false
				}
				total += int64(len(edges))
				for _, e := range edges {
					if l.Meta.IntervalOf(e.Src) != i || l.Meta.IntervalOf(e.Dst) != j {
						return false
					}
				}
			}
		}
		return total == int64(len(g.Edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
