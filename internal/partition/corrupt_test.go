package partition

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
)

func TestLoadMissingManifest(t *testing.T) {
	dev := testDevice(t)
	if _, err := Load(dev); err == nil {
		t.Fatal("Load on empty device succeeded")
	}
}

func TestCorruptIndexRejected(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(IndexName(0, 0), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadIndex(0, 0); err == nil {
		t.Fatal("corrupt index accepted")
	}
}

// TestMisshapenIndexRejected: an index that parses but does not describe its
// block — too few entries (the three bytes {1,0,0} that used to load and then
// panic ReadVertexEdges), too many, or record and byte totals that are not the
// block's — is an error of LoadIndex naming the file, on both codecs.
func TestMisshapenIndexRejected(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			dev := testDevice(t)
			l, err := Build(dev, gen.Weighted(gen.Grid(8), 4, 1), 2, WithCodec(codec))
			if err != nil {
				t.Fatal(err)
			}
			good, err := l.LoadIndex(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			shifted := func(vals []int64, by int64) []int64 {
				out := slices.Clone(vals)
				for k := range out {
					out[k] += by
				}
				return out
			}
			cases := map[string]func() error{
				"one entry": func() error {
					one := []byte{1, 0}
					if good.Off != nil {
						one = append(one, 0)
					}
					return dev.WriteFile(IndexName(0, 0), one)
				},
				"an entry short": func() error {
					n := len(good.Rec) - 1
					var off []int64
					if good.Off != nil {
						off = good.Off[:n]
					}
					return dev.WriteFile(IndexName(0, 0), encodeIndex(good.Rec[:n], off))
				},
				"an entry over": func() error {
					var off []int64
					if good.Off != nil {
						off = append(slices.Clone(good.Off), good.Off[len(good.Off)-1])
					}
					return dev.WriteFile(IndexName(0, 0), encodeIndex(append(slices.Clone(good.Rec), good.Rec[len(good.Rec)-1]), off))
				},
				"records from one": func() error {
					return dev.WriteFile(IndexName(0, 0), encodeIndex(shifted(good.Rec, 1), good.Off))
				},
				"a record too many": func() error {
					rec := slices.Clone(good.Rec)
					rec[len(rec)-1]++
					return dev.WriteFile(IndexName(0, 0), encodeIndex(rec, good.Off))
				},
			}
			if good.Off != nil {
				cases["bytes past the block"] = func() error {
					return dev.WriteFile(IndexName(0, 0), encodeIndex(good.Rec, shifted(good.Off, l.Meta.SubBlockDiskBytes(0, 0))))
				}
			}
			for name, write := range cases {
				if err := write(); err != nil {
					t.Fatal(err)
				}
				idx, err := l.LoadIndex(0, 0)
				if err == nil {
					t.Fatalf("%s: accepted, %d entries", name, len(idx.Rec))
				}
				if !strings.Contains(err.Error(), IndexName(0, 0)) {
					t.Fatalf("%s: error %q does not name the file", name, err)
				}
			}
			if err := dev.WriteFile(IndexName(0, 0), encodeIndex(good.Rec, good.Off)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.LoadIndex(0, 0); err != nil {
				t.Fatalf("restored index: %v", err)
			}
		})
	}
}

// TestCorruptDegreesRejected: the degree table is held to the manifest's
// checksum, not to its length alone. One flipped bit per entry — the right
// size, plausible degrees, and before degrees_sum a PageRank that returned
// nil and 378 of 512 outputs changed — is an error naming the file.
func TestCorruptDegreesRejected(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	good, err := dev.ReadFile(DegreesName)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(good)
	for k := 0; k < len(flipped); k += 4 {
		flipped[k] ^= 1
	}
	for name, damage := range map[string][]byte{"wrong size": {1, 2, 3}, "same size": flipped} {
		if err := dev.WriteFile(DegreesName, damage); err != nil {
			t.Fatal(err)
		}
		if _, err := l.LoadDegrees(); err == nil || !strings.Contains(err.Error(), DegreesName) {
			t.Fatalf("%s: LoadDegrees said %v, want an error naming %s", name, err, DegreesName)
		}
	}
}

func TestCorruptSubBlockRejected(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(SubBlockName(0, 0), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadSubBlock(0, 0); err == nil {
		t.Fatal("corrupt sub-block accepted")
	}
}

// TestDamagedDeltaRunRejectedOnSelectiveRead covers the one read the block
// CRC never sees: a positional per-vertex read. A damaged run that still
// parses must be caught by the index's record count — before that count sizes
// the weight read — whether it now decodes to fewer edges (run-length byte
// lowered, the tail parsing as a further, empty run) or to more.
func TestDamagedDeltaRunRejectedOnSelectiveRead(t *testing.T) {
	// Vertex 0's run is {srcRel 0, runLen 4, gaps +1 +1 +1 +0}: bytes
	// 00 04 02 02 02 00; vertex 1's is {1, 2, +1, +8192}: 01 02 02 80 80 01.
	g := &graph.Graph{NumVertices: 8200, Weighted: true, Edges: []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 0, Dst: 2, Weight: 2}, {Src: 0, Dst: 3, Weight: 3}, {Src: 0, Dst: 3, Weight: 4},
		{Src: 1, Dst: 1, Weight: 5}, {Src: 1, Dst: 8193, Weight: 6},
	}}
	for _, c := range []struct {
		name   string
		vertex graph.VertexID
		damage func(run []byte)
	}{
		{"fewer", 0, func(run []byte) { run[1] = 2 }},              // 00 02 02 02 | 02 00
		{"more", 1, func(run []byte) { run[1], run[3] = 3, 0x00 }}, // 01 03 02 00 80 01
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := testDevice(t)
			l, err := Build(dev, g, 1, WithCodec(graph.CodecDelta))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := l.LoadIndex(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			read := func() ([]graph.Edge, error) {
				r, err := l.OpenSubBlock(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				edges, _, err := l.ReadVertexEdges(r, idx, 0, c.vertex, nil)
				return edges, err
			}
			if edges, err := read(); err != nil || int64(len(edges)) != idx.Rec[c.vertex+1]-idx.Rec[c.vertex] {
				t.Fatalf("intact run: %d edges, %v", len(edges), err)
			}
			data, err := dev.ReadFile(SubBlockName(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			c.damage(data[idx.Off[c.vertex]:idx.Off[c.vertex+1]])
			if err := dev.WriteFile(SubBlockName(0, 0), data); err != nil {
				t.Fatal(err)
			}
			edges, err := read()
			if err == nil {
				t.Fatalf("damaged run accepted: %d edges", len(edges))
			}
			for _, want := range []string{SubBlockName(0, 0), fmt.Sprintf("vertex %d", c.vertex), "index says"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
