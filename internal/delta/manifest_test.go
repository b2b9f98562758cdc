package delta_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// sealedLayout builds gen.Chain(64) at P=4, seals one delta layer over it
// (the edge 0→5, which moves vertex 0's degree) and returns every file of the
// closed store by path, the WAL's included.
func sealedLayout(tb testing.TB) map[string][]byte {
	tb.Helper()
	dir := tb.TempDir()
	dev, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := partition.Build(dev, gen.Chain(64), 4); err != nil {
		tb.Fatal(err)
	}
	s, err := delta.Open(dev, delta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Apply([]delta.Mutation{{Op: delta.OpInsert, Src: 0, Dst: 5}}); err != nil {
		tb.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			files[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return files
}

// hostileManifests returns the genuine manifest of files and two that pass a
// JSON decode and, before Validate checked them, partition.Load too: a layer
// adjusting the degree of a vertex beyond the graph, which panicked
// delta.Open, and a last_layer_id below a listed layer's ID, under which the
// next seal overwrote that live layer's files.
func hostileManifests(tb testing.TB, files map[string][]byte) map[string][]byte {
	tb.Helper()
	genuine := files[partition.ManifestName]
	edit := func(change func(m *partition.Manifest)) []byte {
		var m partition.Manifest
		if err := json.Unmarshal(genuine, &m); err != nil {
			tb.Fatal(err)
		}
		if len(m.DeltaLayers) != 1 || len(m.DeltaLayers[0].DegVertices) != 1 {
			tb.Fatalf("want one sealed layer adjusting one degree, manifest lists %+v", m.DeltaLayers)
		}
		change(&m)
		out, err := json.Marshal(&m)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	return map[string][]byte{
		"degree vertex out of range": edit(func(m *partition.Manifest) { m.DeltaLayers[0].DegVertices[0] = 1000000 }),
		"last layer ID behind":       edit(func(m *partition.Manifest) { m.LastLayerID = 0 }),
	}
}

// writeLayout writes files into a fresh directory, manifest in place of the
// one they hold, and returns a device over it.
func writeLayout(tb testing.TB, files map[string][]byte, manifest []byte) *storage.Device {
	tb.Helper()
	dir := tb.TempDir()
	for name, data := range files {
		if name == partition.ManifestName {
			data = manifest
		}
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	dev, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		tb.Fatal(err)
	}
	return dev
}

// TestManifestRejectsHostileDeltaLayers: both hostile manifests fail to load,
// naming what is wrong, so neither delta.Open nor a later seal ever sees them.
func TestManifestRejectsHostileDeltaLayers(t *testing.T) {
	files := sealedLayout(t)
	for name, manifest := range hostileManifests(t, files) {
		dev := writeLayout(t, files, manifest)
		if _, err := partition.Load(dev); err == nil || !strings.Contains(err.Error(), "delta layer") {
			t.Errorf("%s: partition.Load said %v, want an error naming the delta layer", name, err)
		}
		if s, err := delta.Open(dev, delta.Options{}); err == nil {
			s.Close()
			t.Errorf("%s: delta.Open accepted the manifest", name)
		}
	}
}

// FuzzManifestLoad writes arbitrary bytes as the manifest of a small mutable
// layout with one sealed layer, loads it, and opens the delta store over it
// when the load succeeds. Nothing may panic: Validate is all that stands
// between a hostile manifest and every accessor that subscripts by it.
func FuzzManifestLoad(f *testing.F) {
	files := sealedLayout(f)
	f.Add(files[partition.ManifestName])
	for _, m := range hostileManifests(f, files) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dev := writeLayout(t, files, manifest)
		if _, err := partition.Load(dev); err != nil {
			return
		}
		if s, err := delta.Open(dev, delta.Options{}); err == nil {
			s.Close()
		}
	})
}
