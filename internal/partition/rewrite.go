package partition

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// RewriteBlock writes sub-block (i, j)'s merged content at generation gen —
// the compaction write path. cell must be src-then-dst sorted and lie
// entirely inside the block's intervals. It is Build's cell writer pointed at
// a manifest that already exists: m's EdgeCounts, BlockBytes, BlockSums and
// BlockGens entries are updated in place, and the caller publishes the updated
// manifest with SaveManifest once every rewritten block is on the device.
func RewriteBlock(dev *storage.Device, m *Manifest, gen, i, j int, cell []graph.Edge) error {
	if gen <= 0 {
		return fmt.Errorf("partition: rewrite generation must be positive, got %d", gen)
	}
	return (&layoutWriter{dev: dev, m: m, gen: gen, index: true}).writeCell(i, j, cell)
}

// WriteDegreesAt writes deg as the out-degree table at generation gen and
// points m at it. Compactions that fold delta-layer degree adjustments call
// this before publishing the manifest, so pinned snapshots keep reading the
// old table by its old name.
func WriteDegreesAt(dev *storage.Device, m *Manifest, gen int, deg []uint32) error {
	if len(deg) != m.NumVertices {
		return fmt.Errorf("partition: degree table has %d entries, want %d", len(deg), m.NumVertices)
	}
	return (&layoutWriter{dev: dev, m: m, gen: gen}).writeDegrees(deg)
}
