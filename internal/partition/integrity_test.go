package partition

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// flipByteOnDisk corrupts one byte of a device file behind the device's
// back, simulating silent media corruption.
func flipByteOnDisk(t *testing.T, dev *storage.Device, name string, off int) {
	t.Helper()
	p := filepath.Join(dev.Dir(), filepath.FromSlash(name))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty, nothing to corrupt", name)
	}
	data[off%len(data)] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstNonEmptyBlock returns the coordinates of the first sub-block with
// edges.
func firstNonEmptyBlock(t *testing.T, m *Manifest) (int, int) {
	t.Helper()
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			if m.SubBlockEdges(i, j) > 0 {
				return i, j
			}
		}
	}
	t.Fatal("no non-empty sub-block")
	return 0, 0
}

func TestFlippedByteFailsLoadWithCoordinates(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			dev := testDevice(t)
			g, err := gen.RMAT(8, 8, gen.Graph500, 11)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Build(dev, g, 4, WithCodec(codec)); err != nil {
				t.Fatal(err)
			}
			l, err := Load(dev)
			if err != nil {
				t.Fatal(err)
			}
			i, j := firstNonEmptyBlock(t, &l.Meta)
			flipByteOnDisk(t, dev, SubBlockName(i, j), 3)

			_, err = l.LoadSubBlock(i, j)
			if err == nil {
				t.Fatal("flipped byte loaded without error")
			}
			want := fmt.Sprintf("(%d,%d)", i, j)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name sub-block %s", err, want)
			}
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("error %q is not a checksum error", err)
			}
			if !strings.Contains(err.Error(), codec.String()) {
				t.Fatalf("error %q does not name codec %s", err, codec)
			}

			// Intact blocks keep loading.
			for a := 0; a < l.Meta.P; a++ {
				for b := 0; b < l.Meta.P; b++ {
					if a == i && b == j {
						continue
					}
					if _, err := l.LoadSubBlock(a, b); err != nil {
						t.Fatalf("intact block (%d,%d): %v", a, b, err)
					}
				}
			}
		})
	}
}

// TestFlippedByteFailsHUSGraphColumn: a column block is verified against its
// ColSums entry on every load, and held to its cell. Rows have no sum: they are only read by vertex,
// held to their cell by the decoders — and a manifest written when they had
// one (row_sums) still loads.
func TestFlippedByteFailsHUSGraphColumn(t *testing.T) {
	dev := testDevice(t)
	g, err := gen.RMAT(8, 8, gen.Graph500, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildHUSGraph(dev, g, 3); err != nil {
		t.Fatal(err)
	}
	data, err := dev.ReadFile(ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.Replace(string(data), `"col_sums"`, `"row_sums": [1, 2, 3], "col_sums"`, 1))
	if err := dev.WriteFile(ManifestName, data); err != nil {
		t.Fatal(err)
	}
	l, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	flipByteOnDisk(t, dev, ColName(1), 5)
	if _, err := l.LoadSubBlock(-1, 1); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted column load: %v", err)
	}
	// Untouched blocks still verify.
	if _, err := l.LoadSubBlock(-1, 0); err != nil {
		t.Fatalf("intact column: %v", err)
	}
	// A column whose sum matches is still held to its destinations, which
	// the scatter subscripts by: here an edge of column 0 in column 2.
	bad := encodeRawEdges([]graph.Edge{{Src: 1, Dst: 0}}, false)
	l.Meta.ColSums[2] = Checksum(bad)
	if err := dev.WriteFile(ColName(2), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadSubBlock(-1, 2); err == nil || !strings.Contains(err.Error(), "column 2") || !strings.Contains(err.Error(), "outside cell") {
		t.Fatalf("out-of-cell column load: %v", err)
	}
}

func TestExternalBuildRecordsChecksums(t *testing.T) {
	dev := testDevice(t)
	g, err := gen.RMAT(8, 8, gen.Graph500, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildExternal(dev, graph.NewSliceStream(g.Edges), g.NumVertices, g.Weighted, 3); err != nil {
		t.Fatal(err)
	}
	l, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta.BlockSums == nil {
		t.Fatal("external build recorded no checksums")
	}
	i, j := firstNonEmptyBlock(t, &l.Meta)
	flipByteOnDisk(t, dev, SubBlockName(i, j), 0)
	if _, err := l.LoadSubBlock(i, j); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted external-built block load: %v", err)
	}
}

// TestTornManifestWriteLeavesNoLayout is the crash-safety contract of
// preprocessing: a build whose manifest write tears must not leave a
// loadable layout behind — the manifest is the commit point.
func TestTornManifestWriteLeavesNoLayout(t *testing.T) {
	dev := testDevice(t)
	dev.SetFaultInjector(func(op, name string) error {
		if op == "write" && name == ManifestName {
			return fmt.Errorf("chaos: %w", storage.ErrTornWrite)
		}
		return nil
	})
	_, err := Build(dev, paperGraph(), 2)
	if !errors.Is(err, storage.ErrTornWrite) {
		t.Fatalf("want torn-write failure, got %v", err)
	}
	dev.SetFaultInjector(nil)
	if dev.Exists(ManifestName) {
		t.Fatal("torn manifest write published the manifest")
	}
	if _, err := Load(dev); err == nil {
		t.Fatal("layout loadable after torn manifest write")
	}
}

// TestTornIndexWriteNeverPublishes: same contract for .idx files — an
// injected torn write must leave either nothing or the previous intact
// file under the final name.
func TestTornIndexWriteNeverPublishes(t *testing.T) {
	dev := testDevice(t)
	target := IndexName(0, 0)
	dev.SetFaultInjector(func(op, name string) error {
		if op == "write" && name == target {
			return fmt.Errorf("chaos: %w", storage.ErrTornWrite)
		}
		return nil
	})
	if _, err := Build(dev, paperGraph(), 2); !errors.Is(err, storage.ErrTornWrite) {
		t.Fatalf("want torn-write failure, got %v", err)
	}
	if dev.Exists(target) {
		t.Fatal("torn index write published the index")
	}
}
