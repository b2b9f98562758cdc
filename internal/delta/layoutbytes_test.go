package delta_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestLayoutBytesPinned holds every byte the write side puts on a device to
// testdata/layout_bytes.golden: the sha256 of each file Build, BuildExternal
// (raw and delta), BuildLumos and BuildHUSGraph write for one unweighted and one
// weighted graph, and of each file left after one seal and one compaction of a
// mutation script. The golden was recorded at the commit before the three
// writers became one, so a change to the grid writer that moves a byte of a
// payload, an index, a degree table or a manifest field fails here by file
// name. manifest.json is compared field-wise — decoded, re-encoded with sorted
// keys — without degrees_sum, the one field added since the recording.
// UPDATE_GOLDEN=1 re-records, for a change that means to move the format.
func TestLayoutBytesPinned(t *testing.T) {
	const p = 3
	var got bytes.Buffer
	record := func(variant string, dev *storage.Device) {
		t.Helper()
		names, err := dev.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasPrefix(name, "wal/") {
				continue // the mutation log is the store's, not the layout's
			}
			data, err := dev.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == partition.ManifestName {
				var fields map[string]any
				if err := json.Unmarshal(data, &fields); err != nil {
					t.Fatalf("%s: %v", variant, err)
				}
				delete(fields, "degrees_sum")
				if data, err = json.Marshal(fields); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(&got, "%s %s %x\n", variant, name, sha256.Sum256(data))
		}
	}
	device := func() *storage.Device {
		t.Helper()
		dev, err := storage.OpenDevice(t.TempDir(), storage.SSD)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}

	for _, weighted := range []bool{false, true} {
		g := testGraph(t, 200, 1200, 31)
		kind := "unweighted"
		if weighted {
			g, kind = gen.Weighted(g, 16, 32), "weighted"
		}
		for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
			name := kind + "/" + codec.String()
			record("build/"+name, buildBase(t, g, p, codec))

			ext := device()
			if _, err := partition.BuildExternal(ext, graph.NewSliceStream(g.Edges), g.NumVertices, weighted, p, partition.WithCodec(codec)); err != nil {
				t.Fatal(err)
			}
			record("external/"+name, ext)

			// One sealed layer folded into generation 1: rewritten cells and the
			// rewritten degree table beside the untouched generation-0 files.
			dev := buildBase(t, g, p, codec)
			s := openStore(t, dev, delta.Options{MemtableBytes: 1 << 30})
			for _, b := range mutationScript(g, 3, 40, 33) {
				if err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Generation != 1 || st.Layers != 0 {
				t.Fatalf("%s: generation %d with %d layers after one seal and compact", name, st.Generation, st.Layers)
			}
			record("compacted/"+name, dev)
		}
		for system, build := range map[string]func(*storage.Device, *graph.Graph, int, ...partition.BuildOption) (*partition.Layout, error){
			"lumos": partition.BuildLumos, "husgraph": partition.BuildHUSGraph,
		} {
			dev := device()
			if _, err := build(dev, g, p); err != nil {
				t.Fatal(err)
			}
			record(system+"/"+kind, dev)
		}
	}

	const golden = "testdata/layout_bytes.golden"
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	slices.Sort(lines)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(want) {
		t.Errorf("%d files written, the golden records %d", len(lines), len(want))
	}
	for k := 0; k < len(lines) && k < len(want); k++ {
		if lines[k] != want[k] {
			t.Fatalf("layout bytes moved:\n got  %s\n want %s", lines[k], want[k])
		}
	}
}
