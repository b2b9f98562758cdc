package delta_test

import (
	"encoding/binary"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
)

// withLayerBlock returns the files of sealedLayout with its one layer block,
// (0,0), replaced by payload, and the manifest's size and checksum of that
// block fixed to match: a block that passes its CRC whatever it holds.
func withLayerBlock(tb testing.TB, files map[string][]byte, payload []byte) map[string][]byte {
	tb.Helper()
	var m partition.Manifest
	if err := json.Unmarshal(files[partition.ManifestName], &m); err != nil {
		tb.Fatal(err)
	}
	if len(m.DeltaLayers) != 1 || len(m.DeltaLayers[0].Blocks) != 1 {
		tb.Fatalf("want one sealed layer of one block, manifest lists %+v", m.DeltaLayers)
	}
	ref := &m.DeltaLayers[0]
	b := &ref.Blocks[0]
	if b.I != 0 || b.J != 0 {
		tb.Fatalf("the layer's block is (%d,%d), want (0,0)", b.I, b.J)
	}
	b.Bytes, b.Sum = int64(len(payload)), partition.Checksum(payload)
	manifest, err := json.Marshal(&m)
	if err != nil {
		tb.Fatal(err)
	}
	out := maps.Clone(files)
	out[partition.ManifestName] = manifest
	out[partition.LayerBlockName(ref.ID, b.I, b.J)] = payload
	return out
}

// layerBlock is a layer block payload as a seal writes it: the upsert
// section's length, the upserts and the tombstones, each delta-coded against
// cell (0,0)'s bases.
func layerBlock(upserts, tombs []graph.Edge) []byte {
	up := graph.EncodeDeltaBlock(nil, upserts, 0, 0, false)
	buf := binary.AppendUvarint(nil, uint64(len(up)))
	buf = append(buf, up...)
	return graph.EncodeDeltaBlock(buf, tombs, 0, 0, false)
}

// openAndTraverse opens the delta store over files and runs BFS over its
// snapshot, reporting the first error.
func openAndTraverse(tb testing.TB, files map[string][]byte) error {
	dev := writeLayout(tb, files, files[partition.ManifestName])
	if _, err := partition.Load(dev); err != nil {
		return err
	}
	s, err := delta.Open(dev, delta.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	_, err = core.Run(s.Snapshot().Layout(), &algorithms.BFS{Source: 0}, core.Options{})
	return err
}

// TestLayerBlockEdgeOutsideItsCellRefused: a CRC-valid layer block of cell
// (0,0) whose one upsert is 0→1000000, on a graph of 64 vertices, loaded and
// opened, and a traversal over the snapshot indexed the value array by the
// edge and panicked. delta.Open must refuse it, naming the layer and the cell.
func TestLayerBlockEdgeOutsideItsCellRefused(t *testing.T) {
	files := sealedLayout(t)
	for name, c := range map[string]struct{ upserts, tombs []graph.Edge }{
		"upsert":                    {upserts: []graph.Edge{{Src: 0, Dst: 1000000}}},
		"upsert into the next cell": {upserts: []graph.Edge{{Src: 0, Dst: 16}}},
		"tombstone":                 {upserts: []graph.Edge{{Src: 0, Dst: 5}}, tombs: []graph.Edge{{Src: 20, Dst: 1}}},
	} {
		hostile := withLayerBlock(t, files, layerBlock(c.upserts, c.tombs))
		if c.tombs != nil {
			// The manifest counts one tombstone beside the upsert.
			var m partition.Manifest
			if err := json.Unmarshal(hostile[partition.ManifestName], &m); err != nil {
				t.Fatal(err)
			}
			m.DeltaLayers[0].Blocks[0].Tombs = 1
			manifest, err := json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			hostile[partition.ManifestName] = manifest
		}
		err := openAndTraverse(t, hostile)
		if err == nil || !strings.Contains(err.Error(), "layer 1 block (0,0)") {
			t.Errorf("%s: got %v, want an error naming layer 1 block (0,0)", name, err)
		}
	}
	if err := openAndTraverse(t, files); err != nil {
		t.Fatalf("the genuine layout: %v", err)
	}
}

// FuzzLayerBlock writes arbitrary bytes as the one layer block of a small
// mutable layout, with the manifest's checksum of it fixed to match, opens the
// delta store over it and runs a traversal over its snapshot. Nothing may
// panic: the block's checksum says only that the bytes are the ones the
// manifest names, not that they describe edges of their cell.
func FuzzLayerBlock(f *testing.F) {
	files := sealedLayout(f)
	f.Add(layerBlock([]graph.Edge{{Src: 0, Dst: 5}}, nil))
	f.Add(layerBlock([]graph.Edge{{Src: 0, Dst: 1000000}}, nil))
	f.Add(layerBlock([]graph.Edge{{Src: 0, Dst: 5}}, []graph.Edge{{Src: 3, Dst: 4}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		openAndTraverse(t, withLayerBlock(t, files, payload))
	})
}
