package partition

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

// buildPair builds the same graph under both codecs and returns the layouts
// reloaded from disk (exercising the manifest round trip).
func buildPair(t *testing.T, g *graph.Graph, p int) (raw, delta *Layout) {
	t.Helper()
	rawDev, deltaDev := testDevice(t), testDevice(t)
	if _, err := Build(rawDev, g, p); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(deltaDev, g, p, WithCodec(graph.CodecDelta)); err != nil {
		t.Fatal(err)
	}
	var err error
	if raw, err = Load(rawDev); err != nil {
		t.Fatal(err)
	}
	if delta, err = Load(deltaDev); err != nil {
		t.Fatal(err)
	}
	return raw, delta
}

func codecTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"rmat":     rmat,
		"chain":    gen.Chain(64),
		"weighted": gen.Weighted(rmat, 16, 3),
	}
}

func TestDeltaLayoutMatchesRaw(t *testing.T) {
	for name, g := range codecTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			const p = 4
			raw, delta := buildPair(t, g, p)
			if got := delta.Meta.BlockCodec(); got != graph.CodecDelta {
				t.Fatalf("delta layout codec = %v", got)
			}
			if delta.Meta.EdgeBytesTotal() != raw.Meta.EdgeBytesTotal() {
				t.Fatalf("decoded byte totals differ: %d vs %d",
					delta.Meta.EdgeBytesTotal(), raw.Meta.EdgeBytesTotal())
			}
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					a, err := raw.LoadSubBlock(i, j)
					if err != nil {
						t.Fatal(err)
					}
					b, err := delta.LoadSubBlock(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if len(a) != len(b) {
						t.Fatalf("cell (%d,%d): %d vs %d edges", i, j, len(a), len(b))
					}
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("cell (%d,%d) edge %d: %v vs %v", i, j, k, a[k], b[k])
						}
					}
				}
			}
		})
	}
}

func TestDeltaShrinksDiskBytes(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.Graph500, 11)
	if err != nil {
		t.Fatal(err)
	}
	raw, delta := buildPair(t, g, 4)
	rawDisk, deltaDisk := raw.Meta.EdgeDiskBytesTotal(), delta.Meta.EdgeDiskBytesTotal()
	if rawDisk != raw.Meta.EdgeBytesTotal() {
		t.Fatalf("raw on-disk %d != decoded %d", rawDisk, raw.Meta.EdgeBytesTotal())
	}
	if deltaDisk*2 > rawDisk {
		t.Fatalf("delta on-disk %d not at least 2x below raw %d", deltaDisk, rawDisk)
	}
	// The manifest's per-block sizes must agree with the files on disk.
	for i := 0; i < delta.Meta.P; i++ {
		for j := 0; j < delta.Meta.P; j++ {
			want, _ := delta.Dev.Size(SubBlockName(i, j))
			if got := delta.Meta.SubBlockDiskBytes(i, j); got != want {
				t.Fatalf("cell (%d,%d): manifest says %d bytes, file is %d", i, j, got, want)
			}
		}
	}
}

func TestDeltaReadVertexEdges(t *testing.T) {
	for name, g := range codecTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			const p = 4
			raw, delta := buildPair(t, g, p)
			for i := 0; i < p; i++ {
				lo, hi := raw.Meta.Interval(i)
				for j := 0; j < p; j++ {
					ra, err := raw.OpenSubBlock(i, j)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := delta.OpenSubBlock(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if (ra == nil) != (rb == nil) {
						t.Fatalf("cell (%d,%d): reader presence differs", i, j)
					}
					if ra == nil {
						continue
					}
					ia, err := raw.LoadIndex(i, j)
					if err != nil {
						t.Fatal(err)
					}
					ib, err := delta.LoadIndex(i, j)
					if err != nil {
						t.Fatal(err)
					}
					var bufA, bufB []byte
					for v := lo; v < hi; v++ {
						var a, b []graph.Edge
						a, bufA, err = raw.ReadVertexEdges(ra, ia, i, graph.VertexID(v), bufA)
						if err != nil {
							t.Fatal(err)
						}
						b, bufB, err = delta.ReadVertexEdges(rb, ib, i, graph.VertexID(v), bufB)
						if err != nil {
							t.Fatal(err)
						}
						if len(a) != len(b) {
							t.Fatalf("vertex %d cell (%d,%d): %d vs %d edges", v, i, j, len(a), len(b))
						}
						for k := range a {
							if a[k] != b[k] {
								t.Fatalf("vertex %d edge %d: %v vs %v", v, k, a[k], b[k])
							}
						}
					}
					ra.Close()
					rb.Close()
				}
			}
		})
	}
}

func TestBuildExternalDeltaMatchesInMemory(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 23)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	memDev, extDev := testDevice(t), testDevice(t)
	if _, err := Build(memDev, g, p, WithCodec(graph.CodecDelta)); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildExternal(extDev, graph.NewSliceStream(g.Edges), g.NumVertices, false, p,
		WithCodec(graph.CodecDelta)); err != nil {
		t.Fatal(err)
	}
	// Byte-identical payloads and indexes: the external preprocessor is a
	// drop-in replacement under the delta codec too.
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			for _, name := range []string{SubBlockName(i, j), IndexName(i, j)} {
				a, errA := memDev.ReadFile(name)
				b, errB := extDev.ReadFile(name)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: presence differs (%v vs %v)", name, errA, errB)
				}
				if string(a) != string(b) {
					t.Fatalf("%s: external bytes differ from in-memory build", name)
				}
			}
		}
	}
}

func TestDeltaRejectedOutsideGraphSDGrid(t *testing.T) {
	g := gen.Chain(20)
	if _, err := BuildHUSGraph(testDevice(t), g, 2, WithCodec(graph.CodecDelta)); err == nil {
		t.Error("husgraph build accepted delta codec")
	}
	if _, err := BuildLumos(testDevice(t), g, 2, WithCodec(graph.CodecDelta)); err == nil {
		t.Error("lumos build accepted delta codec")
	}
}

// TestV1LayoutRejected downgrades a freshly built layout's manifest to
// format_version 1 — the pre-checksum format, which nothing writes — and
// requires Load to refuse it: serving it would mean serving blocks with no
// CRC verification.
func TestV1LayoutRejected(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t)
	l, err := Build(dev, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := l.Meta
	m.FormatVersion = 1
	m.Codec = ""
	m.BlockBytes = nil
	m.BlockSums = nil
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(ManifestName, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dev); err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("v1 manifest loaded: %v", err)
	}
}

// TestLoadColumnInto: a HUS-Graph column loaded into reused buffers, through
// the column's kept reader, is the column loaded afresh.
func TestLoadColumnInto(t *testing.T) {
	g := gen.Weighted(gen.Chain(40), 8, 9)
	dev := testDevice(t)
	l, err := BuildHUSGraph(dev, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	var buf []byte
	for i := 0; i < 3; i++ {
		want, err := l.LoadSubBlock(-1, i)
		if err != nil {
			t.Fatal(err)
		}
		r := l.BlockReader(-1, i)
		edges, buf, err = l.LoadSubBlockFrom(r, -1, i, edges, buf)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != len(want) {
			t.Fatalf("col %d: %d vs %d edges", i, len(edges), len(want))
		}
		for k := range want {
			if edges[k] != want[k] {
				t.Fatalf("col %d edge %d: %v vs %v", i, k, edges[k], want[k])
			}
		}
	}
}

func TestManifestValidateRequiresSizesAndSums(t *testing.T) {
	m := Manifest{
		FormatVersion: 2, System: "graphsd", NumVertices: 4, NumEdges: 1, P: 1,
		Codec:      "delta",
		EdgeCounts: [][]int64{{1}},
		BlockSums:  [][]uint32{{0}},
		DegreesSum: new(uint32),
	}
	if err := m.Validate(); err == nil {
		t.Error("delta manifest without block_bytes accepted")
	}
	m.BlockBytes = [][]int64{{3}}
	m.BlockSums = nil
	if err := m.Validate(); err == nil {
		t.Error("grid manifest without block_sums accepted")
	}
	m.BlockSums = [][]uint32{{0}}
	if err := m.Validate(); err != nil {
		t.Errorf("valid delta manifest rejected: %v", err)
	}
	// Every per-cell table is subscripted [i][j] without a look: a short row
	// has to fail here.
	for name, short := range map[string]func(*Manifest){
		"edge_counts": func(m *Manifest) { m.EdgeCounts, m.NumEdges = [][]int64{{}}, 0 },
		"block_bytes": func(m *Manifest) { m.BlockBytes = [][]int64{{}} },
		"block_sums":  func(m *Manifest) { m.BlockSums = [][]uint32{{}} },
		"block_gens":  func(m *Manifest) { m.BlockGens = [][]int{{}} },
	} {
		bad := m
		short(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "row 0 has 0 entries") {
			t.Errorf("manifest with a short %s row accepted", name)
		}
	}
	m.DegreesSum = nil
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Errorf("manifest without degrees_sum: %v, want an error that says to rebuild", err)
	}
}
