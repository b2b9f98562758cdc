package delta

import (
	"sync"

	"github.com/graphsd/graphsd/internal/partition"
)

// View is a snapshot-isolated read handle: the base generation, sealed
// layers, and a frozen copy of the memtable exactly as they stood at
// Snapshot time. A job pins a view at submit and sees none of the writes,
// seals, or compactions that happen while it runs. Views implement
// partition.Overlay.
type View struct {
	store *Store
	meta  *partition.Manifest // merged counts/bytes over base BlockSums
	// layers and mem are immutable after the snapshot (sealed layers are
	// never modified in place; the memtable maps are deep-copied).
	layers   []*layer
	mem      map[blockKey]map[uint64]memVal
	vers     [][]int64
	degDelta []int32 // shared copy-on-write with the store
	gen      int

	mu       sync.Mutex
	resolved map[blockKey][]partition.OverlayEdge
	released bool
}

// Snapshot pins the current merged state for reading. The returned view
// holds the base generation's files against garbage collection until
// Release.
func (s *Store) Snapshot() *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	mm := cloneManifest(s.meta)
	for _, l := range s.layers {
		for _, b := range l.ref.Blocks {
			mm.EdgeCounts[b.I][b.J] += b.EdgeDelta
			// Charge the layer's on-disk payload to the block so the I/O
			// scheduler prices base + delta bytes for every plan it costs.
			mm.BlockBytes[b.I][b.J] += b.Bytes
			mm.NumEdges += b.EdgeDelta
		}
	}
	for bk, d := range s.mem.countDelta {
		mm.EdgeCounts[bk.i][bk.j] += d
		mm.NumEdges += d
	}
	mem := make(map[blockKey]map[uint64]memVal, len(s.mem.blocks))
	for bk, vals := range s.mem.blocks {
		c := make(map[uint64]memVal, len(vals))
		for k, v := range vals {
			c[k] = v
		}
		mem[bk] = c
	}
	if s.degDelta != nil {
		s.degShared = true
	}
	v := &View{
		store:    s,
		meta:     mm,
		layers:   append([]*layer(nil), s.layers...),
		mem:      mem,
		vers:     cloneGrid(s.vers),
		degDelta: s.degDelta,
		gen:      s.meta.Generation,
	}
	s.pins[v.gen]++
	return v
}

// Layout returns a read layout over the snapshot: merged per-block counts
// and bytes (so scheduling and SEM activity see delta edges) with this
// view as the overlay.
func (v *View) Layout() *partition.Layout {
	return &partition.Layout{Dev: v.store.dev, Meta: *v.meta, Overlay: v}
}

// Meta returns the snapshot's merged manifest.
func (v *View) Meta() *partition.Manifest { return v.meta }

// Generation returns the base layout generation the view is pinned to.
func (v *View) Generation() int { return v.gen }

// BlockDelta implements partition.Overlay: the resolved (latest-wins,
// sorted) overlay entries for sub-block (i, j), merged across the
// snapshot's layers and frozen memtable. Resolution is lazy and cached per
// view.
func (v *View) BlockDelta(i, j int) []partition.OverlayEdge {
	bk := blockKey{i, j}
	v.mu.Lock()
	defer v.mu.Unlock()
	if od, ok := v.resolved[bk]; ok {
		return od
	}
	od := resolveLayerStack(v.layers, bk, v.mem[bk])
	if v.resolved == nil {
		v.resolved = make(map[blockKey][]partition.OverlayEdge)
	}
	v.resolved[bk] = od
	return od
}

// BlockVersion implements partition.Overlay: the logical content version
// of sub-block (i, j) at snapshot time, used to generation-scope shared
// cache keys.
func (v *View) BlockVersion(i, j int) int64 { return v.vers[i][j] }

// AdjustDegrees implements partition.Overlay: folds the snapshot's net
// degree changes into a freshly loaded base degree table.
func (v *View) AdjustDegrees(deg []uint32) {
	if v.degDelta == nil {
		return
	}
	for vertex, d := range v.degDelta {
		if d != 0 {
			deg[vertex] = uint32(int64(deg[vertex]) + int64(d))
		}
	}
}

// Release unpins the view. Files retired by compactions that happened
// while the view was pinned become eligible for deletion once no older
// pin remains. Idempotent.
func (v *View) Release() {
	v.mu.Lock()
	if v.released {
		v.mu.Unlock()
		return
	}
	v.released = true
	v.mu.Unlock()
	v.store.releasePin(v.gen)
}

func (s *Store) releasePin(gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[gen]; n <= 1 {
		delete(s.pins, gen)
	} else {
		s.pins[gen] = n - 1
	}
	s.gcLocked()
}

// gcLocked deletes retired files whose superseding generation is no longer
// shielded by an older pinned snapshot. Best effort: a failed delete is
// retried at the next GC and swept at the next open.
func (s *Store) gcLocked() {
	if len(s.retiredFiles) == 0 {
		return
	}
	minPinned := -1
	for gen := range s.pins {
		if minPinned < 0 || gen < minPinned {
			minPinned = gen
		}
	}
	keep := s.retiredFiles[:0]
	for _, r := range s.retiredFiles {
		if minPinned >= 0 && minPinned < r.gen {
			keep = append(keep, r)
			continue
		}
		failed := r.files[:0]
		for _, name := range r.files {
			if !s.dev.Exists(name) {
				continue
			}
			if err := s.dev.Remove(name); err != nil {
				failed = append(failed, name)
			}
		}
		if len(failed) > 0 {
			keep = append(keep, retired{gen: r.gen, files: failed})
		}
	}
	s.retiredFiles = keep
}
