package delta

import (
	"fmt"
	"sort"

	"github.com/graphsd/graphsd/internal/partition"
)

// Compact folds every currently sealed delta layer into the base grid,
// publishing a new layout generation. Touched sub-blocks are rewritten at
// generation-qualified names with the same codec and index format Build
// uses, so a compacted block is byte-identical to a fresh preprocess of
// the merged edge set; the single atomic manifest rename is the commit
// point. Layers sealed while the compaction runs are untouched and survive
// into the new manifest. Pinned snapshots keep reading the old
// generation's files until they release.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	fold := append([]*layer(nil), s.layers...)
	if len(fold) == 0 {
		s.mu.Unlock()
		return nil
	}
	baseMeta := cloneManifest(s.meta)
	s.mu.Unlock()

	gen := baseMeta.Generation + 1
	newMeta := cloneManifest(baseMeta)

	touched := make(map[blockKey]int64) // net edge delta per rewritten block
	for _, l := range fold {
		for _, b := range l.ref.Blocks {
			touched[blockKey{b.I, b.J}] += b.EdgeDelta
		}
	}
	keys := sortedBlockKeys(touched)

	base := &partition.Layout{Dev: s.dev, Meta: *baseMeta}
	var edgeDelta int64
	for _, bk := range keys {
		cell, _, err := base.LoadSubBlockInto(bk.i, bk.j, nil, nil)
		if err != nil {
			return fmt.Errorf("delta: compacting block (%d,%d): %w", bk.i, bk.j, err)
		}
		merged := partition.MergeOverlay(nil, cell, resolveLayerStack(fold, bk, nil))
		if want := baseMeta.EdgeCounts[bk.i][bk.j] + touched[bk]; int64(len(merged)) != want {
			return fmt.Errorf("delta: compacting block (%d,%d): merged to %d edges, accounting says %d",
				bk.i, bk.j, len(merged), want)
		}
		if err := partition.RewriteBlock(s.dev, newMeta, gen, bk.i, bk.j, merged); err != nil {
			return err
		}
		edgeDelta += touched[bk]
	}

	deg, err := base.LoadDegrees()
	if err != nil {
		return fmt.Errorf("delta: compacting degrees: %w", err)
	}
	for _, l := range fold {
		for k, v := range l.ref.DegVertices {
			deg[v] = uint32(int64(deg[v]) + int64(l.ref.DegDeltas[k]))
		}
	}
	if err := partition.WriteDegreesAt(s.dev, newMeta, gen, deg); err != nil {
		return err
	}
	newMeta.Generation = gen
	newMeta.NumEdges = baseMeta.NumEdges + edgeDelta

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Layers sealed during the rewrite survive; lifetime counters carry
	// whatever those seals added.
	rest := s.layers[len(fold):]
	newMeta.DeltaLayers = nil
	for _, l := range rest {
		newMeta.DeltaLayers = append(newMeta.DeltaLayers, l.ref)
	}
	newMeta.LastLayerID = s.meta.LastLayerID
	newMeta.MutationsTotal = s.meta.MutationsTotal
	if err := partition.SaveManifest(s.dev, newMeta); err != nil {
		return fmt.Errorf("delta: publishing generation %d: %w", gen, err)
	}
	oldMeta := s.meta
	s.meta = newMeta
	s.layers = append([]*layer(nil), rest...)
	for _, l := range fold {
		s.addLayerDegrees(l.ref, -1)
	}
	var files []string
	for _, bk := range keys {
		files = append(files, oldMeta.BlockName(bk.i, bk.j), oldMeta.BlockIndexName(bk.i, bk.j))
	}
	files = append(files, oldMeta.DegreesFile())
	for _, l := range fold {
		for _, b := range l.ref.Blocks {
			files = append(files, partition.LayerBlockName(l.ref.ID, b.I, b.J))
		}
	}
	s.retiredFiles = append(s.retiredFiles, retired{gen: gen, files: files})
	s.gcLocked()
	return nil
}

// sortedBlockKeys returns m's keys in (i, j) order: the order layers list
// their blocks in and compaction rewrites them in.
func sortedBlockKeys[V any](m map[blockKey]V) []blockKey {
	keys := make([]blockKey, 0, len(m))
	for bk := range m {
		keys = append(keys, bk)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a].i < keys[b].i || (keys[a].i == keys[b].i && keys[a].j < keys[b].j)
	})
	return keys
}

// resolveLayerStack is the one newest-wins fold: one block's overlay entries
// across layers, oldest first, with mem — a memtable's entries for the block,
// nil for none — as the newest source, resolved so each key appears once, in
// sorted order. A block only one source touches (the common case) reuses that
// source's sorted slice.
func resolveLayerStack(layers []*layer, bk blockKey, mem map[uint64]memVal) []partition.OverlayEdge {
	var sources [][]partition.OverlayEdge
	for _, l := range layers {
		if lb := l.blocks[bk]; len(lb) > 0 {
			sources = append(sources, lb)
		}
	}
	if len(mem) > 0 {
		sources = append(sources, resolveMem(mem))
	}
	switch len(sources) {
	case 0:
		return nil
	case 1:
		return sources[0]
	}
	acc := make(map[uint64]partition.OverlayEdge)
	for _, src := range sources {
		for _, e := range src {
			acc[uint64(e.Edge.Src)<<32|uint64(e.Edge.Dst)] = e
		}
	}
	od := make([]partition.OverlayEdge, 0, len(acc))
	for _, e := range acc {
		od = append(od, e)
	}
	sortOverlay(od)
	return od
}
