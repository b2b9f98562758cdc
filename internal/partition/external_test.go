package partition

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

func TestBuildExternalMatchesInMemoryBuild(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 21)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4

	memDev := testDevice(t)
	memL, err := Build(memDev, g, p)
	if err != nil {
		t.Fatal(err)
	}
	extDev := testDevice(t)
	extL, err := BuildExternal(extDev, graph.NewSliceStream(g.Edges), g.NumVertices, false, p)
	if err != nil {
		t.Fatal(err)
	}

	if extL.Meta.NumEdges != memL.Meta.NumEdges || extL.Meta.NumVertices != memL.Meta.NumVertices {
		t.Fatalf("manifest mismatch: %+v vs %+v", extL.Meta, memL.Meta)
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if extL.Meta.SubBlockEdges(i, j) != memL.Meta.SubBlockEdges(i, j) {
				t.Fatalf("cell (%d,%d): %d edges vs %d", i, j,
					extL.Meta.SubBlockEdges(i, j), memL.Meta.SubBlockEdges(i, j))
			}
			a, err := extL.LoadSubBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := memL.LoadSubBlock(i, j)
			if err != nil {
				t.Fatal(err)
			}
			for k := range b {
				if a[k] != b[k] {
					t.Fatalf("cell (%d,%d) edge %d: %v vs %v", i, j, k, a[k], b[k])
				}
			}
			ia, err := extL.LoadIndex(i, j)
			if err != nil {
				t.Fatal(err)
			}
			ib, err := memL.LoadIndex(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if len(ia.Rec) != len(ib.Rec) {
				t.Fatalf("cell (%d,%d) index lengths differ: %d vs %d", i, j, len(ia.Rec), len(ib.Rec))
			}
			for k := range ib.Rec {
				if ia.Rec[k] != ib.Rec[k] {
					t.Fatalf("cell (%d,%d) index entry %d differs", i, j, k)
				}
			}
		}
	}
	// Degree tables identical.
	da, err := extL.LoadDegrees()
	if err != nil {
		t.Fatal(err)
	}
	db, err := memL.LoadDegrees()
	if err != nil {
		t.Fatal(err)
	}
	for v := range db {
		if da[v] != db[v] {
			t.Fatalf("degree(%d): %d vs %d", v, da[v], db[v])
		}
	}
}

func TestBuildExternalCleansSpills(t *testing.T) {
	dev := testDevice(t)
	g := gen.Chain(50)
	if _, err := BuildExternal(dev, graph.NewSliceStream(g.Edges), g.NumVertices, false, 3); err != nil {
		t.Fatal(err)
	}
	names, err := dev.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if len(n) >= 5 && n[:5] == "spill" {
			t.Fatalf("spill file %s left behind", n)
		}
	}
}

func TestBuildExternalFromBinaryStream(t *testing.T) {
	g := gen.Weighted(gen.Chain(40), 8, 3)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	st, err := graph.NewBinaryStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVertices != 40 || !st.Weighted {
		t.Fatalf("stream header: %d vertices weighted=%t", st.NumVertices, st.Weighted)
	}
	dev := testDevice(t)
	l, err := BuildExternal(dev, st, st.NumVertices, st.Weighted, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.NumEdges != 39 || !l.Meta.Weighted {
		t.Fatalf("manifest: %+v", l.Meta)
	}
	// Weighted edges survive the round trip.
	edges, err := l.LoadSubBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if e.Weight < 1 || e.Weight > 8 {
			t.Fatalf("weight %v out of range", e.Weight)
		}
	}
}

func TestBuildExternalValidation(t *testing.T) {
	dev := testDevice(t)
	if _, err := BuildExternal(dev, graph.NewSliceStream(nil), 10, false, 0); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := BuildExternal(dev, graph.NewSliceStream(nil), -1, false, 2); err == nil {
		t.Error("negative vertices accepted")
	}
	bad := []graph.Edge{{Src: 0, Dst: 99}}
	if _, err := BuildExternal(dev, graph.NewSliceStream(bad), 10, false, 2); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestSliceStream(t *testing.T) {
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	s := graph.NewSliceStream(edges)
	var got []graph.Edge
	for {
		e, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Fatalf("stream yielded %v", got)
	}
	s.Reset()
	if _, ok, _ := s.Next(); !ok {
		t.Fatal("Reset did not rewind")
	}
}

func TestBinaryStreamTruncated(t *testing.T) {
	g := gen.Chain(10)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	st, err := graph.NewBinaryStream(bytes.NewReader(data[:len(data)-4]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := st.Next()
		if err != nil {
			return // expected: truncation surfaces as a read error
		}
		if !ok {
			t.Fatal("truncated stream ended cleanly")
		}
	}
}

func TestBinaryStreamBadMagic(t *testing.T) {
	if _, err := graph.NewBinaryStream(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestExternalLayoutRunsIdentically: a layout produced by the external
// preprocessor is a drop-in replacement for the in-memory one.
func TestExternalLayoutRunsIdentically(t *testing.T) {
	g, err := gen.RMAT(8, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.OpenDevice(t.TempDir(), storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := BuildExternal(dev, graph.NewSliceStream(g.Edges), g.NumVertices, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Meta.System != "graphsd" || reloaded.Meta.NumEdges != l.Meta.NumEdges {
		t.Fatalf("reloaded manifest: %+v", reloaded.Meta)
	}
}

// TestLayoutBytesIgnoreInputOrder: cells are sorted under a total order
// (source, destination, weight bits), so a weighted multigraph with parallel
// edges — where an unstable sort by (source, destination) alone is free to
// leave either copy first — preprocesses to the same bytes from any input
// order, in memory or externally, on both codecs; and merging an overlay into
// such a cell gives the cell a fresh preprocess of the merged set would.
func TestLayoutBytesIgnoreInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := &graph.Graph{NumVertices: 64, Weighted: true}
	for k := 0; k < 4000; k++ {
		// 64 × 64 keys under 4000 edges: most keys are taken several times.
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(rng.Intn(64)), Dst: graph.VertexID(rng.Intn(64)), Weight: float32(rng.Intn(5))})
	}
	shuffled := func() *graph.Graph {
		c := *g
		c.Edges = slices.Clone(g.Edges)
		rng.Shuffle(len(c.Edges), func(a, b int) { c.Edges[a], c.Edges[b] = c.Edges[b], c.Edges[a] })
		return &c
	}
	const p = 3
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		files := func(build func(dev *storage.Device, g *graph.Graph) (*Layout, error)) map[string][]byte {
			dev := testDevice(t)
			if _, err := build(dev, shuffled()); err != nil {
				t.Fatal(err)
			}
			names, err := dev.List()
			if err != nil {
				t.Fatal(err)
			}
			out := make(map[string][]byte)
			for _, name := range names {
				if out[name], err = dev.ReadFile(name); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		want := files(func(dev *storage.Device, g *graph.Graph) (*Layout, error) {
			return Build(dev, g, p, WithCodec(codec))
		})
		for name, build := range map[string]func(dev *storage.Device, g *graph.Graph) (*Layout, error){
			"Build": func(dev *storage.Device, g *graph.Graph) (*Layout, error) {
				return Build(dev, g, p, WithCodec(codec))
			},
			"BuildExternal": func(dev *storage.Device, g *graph.Graph) (*Layout, error) {
				return BuildExternal(dev, graph.NewSliceStream(g.Edges), g.NumVertices, true, p, WithCodec(codec))
			},
		} {
			got := files(build)
			if len(got) != len(want) {
				t.Fatalf("%s [%s]: %d files, want %d", name, codec, len(got), len(want))
			}
			for file, data := range want {
				if !bytes.Equal(got[file], data) {
					t.Fatalf("%s [%s]: %s differs between two input orders", name, codec, file)
				}
			}
		}
	}

	base := slices.Clone(g.Edges[:3000])
	sortEdgesBySrc(base)
	taken := make(map[[2]graph.VertexID]bool)
	for _, e := range base {
		taken[[2]graph.VertexID{e.Src, e.Dst}] = true
	}
	fresh := slices.Clone(base)
	var overlay []OverlayEdge
	for _, e := range g.Edges[3000:] {
		if key := [2]graph.VertexID{e.Src, e.Dst}; !taken[key] {
			taken[key] = true
			overlay = append(overlay, OverlayEdge{Edge: e})
			fresh = append(fresh, e)
		}
	}
	slices.SortFunc(overlay, func(a, b OverlayEdge) int {
		return compareEdgeKeys(a.Edge.Src, a.Edge.Dst, 0, b.Edge.Src, b.Edge.Dst, 0)
	})
	sortEdgesBySrc(fresh)
	if merged := MergeOverlay(nil, base, overlay); len(overlay) == 0 || !slices.Equal(merged, fresh) {
		t.Fatalf("merging %d inserts into a cell with parallel edges differs from sorting the merged set", len(overlay))
	}
}
