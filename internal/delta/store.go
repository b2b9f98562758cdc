package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
	"github.com/graphsd/graphsd/internal/wal"
)

// mutationMagic opens every mutation-WAL segment so a foreign file in the
// directory is rejected instead of replayed.
var mutationMagic = [8]byte{'G', 'S', 'D', 'M', 'U', 'T', '0', '1'}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("delta: store closed")

// ErrWALUnavailable wraps mutation-WAL append failures: the write was not
// acknowledged and the store stops accepting mutations (reads keep working).
var ErrWALUnavailable = errors.New("delta: mutation log unavailable")

// Options tunes a Store.
type Options struct {
	// WALDir is the host directory for the mutation WAL. Empty: "wal"
	// under the device directory.
	WALDir string
	// SegmentBytes is the WAL rotation threshold (0: wal default).
	SegmentBytes int64
	// MemtableBytes seals the memtable into an on-disk delta layer once its
	// estimated footprint reaches this many bytes (0: 1 MiB).
	MemtableBytes int64
	// CompactLayers triggers compaction once this many sealed layers exist
	// (0: 4).
	CompactLayers int
	// CompactBytes triggers compaction once the sealed layers' on-disk
	// payload reaches this many bytes (0: 64 MiB).
	CompactBytes int64
}

func (o Options) withDefaults(dev *storage.Device) Options {
	if o.WALDir == "" {
		o.WALDir = filepath.Join(dev.Dir(), "wal")
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 1 << 20
	}
	if o.CompactLayers <= 0 {
		o.CompactLayers = 4
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 64 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of a store's counters, for /metrics
// and `graphsd stats`.
type Stats struct {
	// MutationsTotal counts normalized mutations over the layout's
	// lifetime: manifest-recorded sealed mutations plus the live memtable.
	// It survives restarts and compactions.
	MutationsTotal int64
	// Accepted counts mutations acknowledged by this process.
	Accepted int64
	// Batches counts Apply calls acknowledged by this process.
	Batches int64
	// Seals counts memtable seals by this process; SealFailures counts
	// seal attempts abandoned on a device error (retried on later writes).
	Seals        int64
	SealFailures int64
	// Generation is the base layout generation (equals the number of
	// compactions over the layout's lifetime).
	Generation int
	// Layers and LayerBytes describe sealed-but-uncompacted delta layers;
	// LayerBytes is the pending-compaction on-disk footprint.
	Layers     int
	LayerBytes int64
	// MemtableKeys and MemtableBytes describe the live (unsealed)
	// memtable.
	MemtableKeys  int64
	MemtableBytes int64
	// Pins is the number of live read snapshots; RetiredFiles counts
	// files awaiting garbage collection behind pinned snapshots.
	Pins         int
	RetiredFiles int
	// WAL is the mutation log's activity.
	WAL wal.Stats
}

// blockKey addresses one cell of the P×P grid.
type blockKey struct{ i, j int }

// memVal is the latest state of one (src,dst) key in the memtable: an
// upsert with weight w, or a tombstone.
type memVal struct {
	w   float32
	del bool
}

// memEntryBytes is the rough in-RAM footprint charged per memtable key
// (map overhead included) when deciding to seal.
const memEntryBytes = 48

// memtable is the unsealed write buffer. All fields are guarded by the
// store mutex.
type memtable struct {
	blocks map[blockKey]map[uint64]memVal
	// countDelta is the net merged-edge-count change per block contributed
	// by this memtable (inserts of absent keys minus deletes of present
	// keys, counting duplicate base copies).
	countDelta map[blockKey]int64
	// degDelta is the net out-degree change per source vertex.
	degDelta map[graph.VertexID]int32
	// mutations counts normalized mutations absorbed (keys written).
	mutations int64
	bytes     int64
}

func newMemtable() *memtable {
	return &memtable{
		blocks:     make(map[blockKey]map[uint64]memVal),
		countDelta: make(map[blockKey]int64),
		degDelta:   make(map[graph.VertexID]int32),
	}
}

// layer is a sealed delta layer: its manifest record plus the resolved,
// sorted per-block overlay entries kept in RAM (layers are bounded by the
// memtable threshold, so this mirrors what the memtable held).
type layer struct {
	ref    partition.LayerRef
	blocks map[blockKey][]partition.OverlayEdge
}

// retired is a set of files superseded by a compaction at generation gen;
// they are deleted once no snapshot pinned before that generation remains.
type retired struct {
	gen   int
	files []string
}

// Store is the mutable write path over one published layout. All methods
// are safe for concurrent use.
type Store struct {
	dev  *storage.Device
	opts Options
	log  *wal.Log

	mu sync.Mutex
	// meta is the published base manifest (never carries merged counts).
	meta   *partition.Manifest
	layers []*layer
	mem    *memtable
	// vers holds per-block logical content versions: bumped on every
	// mutation batch touching the block, never by seal or compaction
	// (those leave merged content identical), so generation-scoped cache
	// entries stay valid exactly as long as the bytes they hold.
	vers [][]int64
	// degDelta is the total out-degree adjustment (layers + memtable) per
	// vertex; nil when empty. degShared marks it as captured by a snapshot
	// and forces copy-on-write.
	degDelta  []int32
	degShared bool
	seq       int64
	// sealedThrough is the highest batch sequence covered by a published
	// layer; replay skips batches at or below it.
	sealedThrough int64
	pins          map[int]int
	retiredFiles  []retired
	closed        bool
	stats         Stats

	// compactMu serialises compactions (Seal and Apply only take mu).
	compactMu sync.Mutex
}

// Open loads the layout's published manifest, rebuilds the sealed layers
// it references, replays the mutation WAL (batches past the last seal
// marker are re-applied), and sweeps orphan files left by a crash between
// a layer/compaction write and its manifest publish.
func Open(dev *storage.Device, opts Options) (*Store, error) {
	layout, err := partition.Load(dev)
	if err != nil {
		return nil, err
	}
	m := layout.Meta
	if m.System != "graphsd" {
		return nil, fmt.Errorf("delta: layout system %q is not mutable (grid layouts only)", m.System)
	}
	if m.BlockBytes == nil || m.BlockSums == nil {
		return nil, fmt.Errorf("delta: layout predates block accounting; rebuild it to make it mutable")
	}
	s := &Store{
		dev:  dev,
		opts: opts.withDefaults(dev),
		meta: &m,
		mem:  newMemtable(),
		pins: make(map[int]int),
	}
	s.vers = make([][]int64, m.P)
	for i := range s.vers {
		s.vers[i] = make([]int64, m.P)
	}
	for _, ref := range m.DeltaLayers {
		l, err := s.loadLayer(ref)
		if err != nil {
			return nil, err
		}
		s.layers = append(s.layers, l)
		s.addLayerDegrees(ref, 1)
	}
	log, err := wal.Open(s.opts.WALDir, wal.Options{
		Prefix:       "mutations",
		Magic:        mutationMagic,
		SegmentBytes: s.opts.SegmentBytes,
		Accept: func(payload []byte) bool {
			_, err := decodeRecord(payload, m.NumVertices, m.Weighted)
			return err == nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	s.log = log
	if err := s.replay(log.ConsumeReplay()); err != nil {
		log.Close()
		return nil, err
	}
	if err := s.sweepOrphans(); err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// loadLayer reads and verifies one sealed layer's block files.
func (s *Store) loadLayer(ref partition.LayerRef) (*layer, error) {
	l := &layer{ref: ref, blocks: make(map[blockKey][]partition.OverlayEdge, len(ref.Blocks))}
	for _, b := range ref.Blocks {
		data, err := s.dev.ReadFile(partition.LayerBlockName(ref.ID, b.I, b.J))
		if err != nil {
			return nil, fmt.Errorf("delta: layer %d block (%d,%d): %w", ref.ID, b.I, b.J, err)
		}
		if got := partition.Checksum(data); got != b.Sum {
			return nil, fmt.Errorf("delta: layer %d block (%d,%d): checksum %08x, want %08x",
				ref.ID, b.I, b.J, got, b.Sum)
		}
		od, err := s.decodeLayerBlock(data, ref.ID, b)
		if err != nil {
			return nil, err
		}
		l.blocks[blockKey{b.I, b.J}] = od
	}
	return l, nil
}

// layer block payload: uvarint upsert-section length, upsert section
// (delta-block codec, weighted as the graph), tombstone section
// (delta-block codec, unweighted).
func encodeLayerBlock(upserts, tombs []graph.Edge, srcBase, dstBase graph.VertexID, weighted bool) []byte {
	up := graph.EncodeDeltaBlock(nil, upserts, srcBase, dstBase, weighted)
	buf := make([]byte, 0, len(up)+16)
	buf = binary.AppendUvarint(buf, uint64(len(up)))
	buf = append(buf, up...)
	return graph.EncodeDeltaBlock(buf, tombs, srcBase, dstBase, false)
}

// decodeLayerBlock decodes layer id's block b. A block that passes its
// checksum can still name edges outside its cell, which readers index vertex
// arrays by, so every upsert and tombstone must lie in the cell.
func (s *Store) decodeLayerBlock(data []byte, id int, b partition.LayerBlock) ([]partition.OverlayEdge, error) {
	upLen, n := binary.Uvarint(data)
	if n <= 0 || upLen > uint64(len(data)-n) {
		return nil, fmt.Errorf("delta: layer %d block (%d,%d): corrupt section header", id, b.I, b.J)
	}
	cell := s.meta.Cell(b.I, b.J)
	upserts, err := graph.AppendDeltaCell(nil, data[n:n+int(upLen)], cell, s.meta.Weighted)
	if err != nil {
		return nil, fmt.Errorf("delta: layer %d block (%d,%d) upserts: %w", id, b.I, b.J, err)
	}
	tombs, err := graph.AppendDeltaCell(nil, data[n+int(upLen):], cell, false)
	if err != nil {
		return nil, fmt.Errorf("delta: layer %d block (%d,%d) tombstones: %w", id, b.I, b.J, err)
	}
	if int64(len(upserts)) != b.Upserts || int64(len(tombs)) != b.Tombs {
		return nil, fmt.Errorf("delta: layer %d block (%d,%d): %d upserts/%d tombstones, manifest says %d/%d",
			id, b.I, b.J, len(upserts), len(tombs), b.Upserts, b.Tombs)
	}
	od := make([]partition.OverlayEdge, 0, len(upserts)+len(tombs))
	for _, e := range upserts {
		od = append(od, partition.OverlayEdge{Edge: e})
	}
	for _, e := range tombs {
		od = append(od, partition.OverlayEdge{Edge: e, Del: true})
	}
	sortOverlay(od)
	return od, nil
}

// addLayerDegrees folds ref's degree adjustments into s.degDelta with the
// given sign (+1 when adopting a layer, -1 when compaction retires it).
func (s *Store) addLayerDegrees(ref partition.LayerRef, sign int32) {
	if len(ref.DegVertices) == 0 {
		return
	}
	if s.degDelta == nil {
		s.degDelta = make([]int32, s.meta.NumVertices)
	} else if s.degShared {
		s.degDelta = append([]int32(nil), s.degDelta...)
		s.degShared = false
	}
	for k, v := range ref.DegVertices {
		s.degDelta[v] += sign * ref.DegDeltas[k]
	}
}

// replay re-applies WAL batches not covered by a seal marker. The apply
// path is idempotent (each mutation is normalized against the state it
// lands on), so a batch that was sealed but whose seal marker was lost is
// harmlessly re-applied with zero net effect on counts.
func (s *Store) replay(payloads [][]byte) error {
	type batch struct {
		seq  int64
		muts []Mutation
	}
	var batches []batch
	for _, p := range payloads {
		rec, err := decodeRecord(p, s.meta.NumVertices, s.meta.Weighted)
		if err != nil {
			// Accept validated every replayed frame; this is a bug.
			return fmt.Errorf("delta: wal replay: %w", err)
		}
		switch rec.kind {
		case recSeal:
			if rec.seq > s.sealedThrough {
				s.sealedThrough = rec.seq
			}
		case recBatch:
			batches = append(batches, batch{rec.seq, rec.muts})
			if rec.seq > s.seq {
				s.seq = rec.seq
			}
		}
	}
	if s.sealedThrough > s.seq {
		s.seq = s.sealedThrough
	}
	for _, b := range batches {
		if b.seq <= s.sealedThrough {
			continue
		}
		staged, err := s.resolve(b.muts)
		if err != nil {
			return fmt.Errorf("delta: wal replay: %w", err)
		}
		s.commit(staged)
	}
	return nil
}

// sweepOrphans removes generation-qualified block files, delta-layer
// files, and degree tables that the published manifest does not reference
// — the residue of a crash after a data write but before its manifest
// publish. Nothing else on the device is touched.
func (s *Store) sweepOrphans() error {
	names, err := s.dev.List()
	if err != nil {
		return err
	}
	live := make(map[string]bool)
	for i := 0; i < s.meta.P; i++ {
		for j := 0; j < s.meta.P; j++ {
			live[s.meta.BlockName(i, j)] = true
			live[s.meta.BlockIndexName(i, j)] = true
		}
	}
	live[s.meta.DegreesFile()] = true
	for _, ref := range s.meta.DeltaLayers {
		for _, b := range ref.Blocks {
			live[partition.LayerBlockName(ref.ID, b.I, b.J)] = true
		}
	}
	for _, name := range names {
		if live[name] {
			continue
		}
		orphan := strings.HasPrefix(name, "delta/") ||
			(strings.HasPrefix(name, "blocks/g") && (strings.HasSuffix(name, ".edges") || strings.HasSuffix(name, ".idx"))) ||
			(strings.HasPrefix(name, "degrees_g") && strings.HasSuffix(name, ".bin"))
		if !orphan {
			continue
		}
		if err := s.dev.Remove(name); err != nil {
			return fmt.Errorf("delta: sweeping orphan %s: %w", name, err)
		}
	}
	return nil
}

// staged is a fully resolved mutation batch, ready to commit to the
// memtable without any possibility of error.
type staged struct {
	vals       map[blockKey]map[uint64]memVal
	countDelta map[blockKey]int64
	degDelta   map[graph.VertexID]int32
	mutations  int64
	newBytes   int64
}

// Apply atomically applies a batch of mutations. The batch is resolved
// against the current merged state first (duplicate base copies are
// counted so deletes remove all of them and re-inserts keep counts exact),
// then framed into the WAL and fsynced — the acknowledgement point — and
// only then made visible to new snapshots. A non-nil error means nothing
// was acknowledged or applied.
func (s *Store) Apply(muts []Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, m := range muts {
		if err := m.Validate(s.meta.NumVertices, s.meta.Weighted); err != nil {
			return err
		}
	}
	st, err := s.resolve(muts)
	if err != nil {
		return err
	}
	seq := s.seq + 1
	if err := s.log.Append(encodeBatch(nil, seq, muts, s.meta.Weighted), true); err != nil {
		return fmt.Errorf("%w: %w", ErrWALUnavailable, err)
	}
	s.seq = seq
	s.commit(st)
	s.stats.Accepted += int64(len(muts))
	s.stats.Batches++
	if s.mem.bytes >= s.opts.MemtableBytes {
		if err := s.sealLocked(); err != nil {
			// The batch is acknowledged and durable in the WAL; a failed
			// seal only postpones layer publication and is retried on a
			// later write.
			s.stats.SealFailures++
		}
	}
	return nil
}

// resolve normalizes muts against the current merged state (memtable →
// layers → base grid, newest first). Device reads happen here, before the
// WAL append, so a read failure rejects the batch instead of losing an
// acknowledged write. Called with mu held.
func (s *Store) resolve(muts []Mutation) (staged, error) {
	st := staged{
		vals:       make(map[blockKey]map[uint64]memVal),
		countDelta: make(map[blockKey]int64),
		degDelta:   make(map[graph.VertexID]int32),
	}
	base := baseReader{s: s}
	defer base.close()
	for _, m := range muts {
		bk := blockKey{s.meta.IntervalOf(m.Src), s.meta.IntervalOf(m.Dst)}
		key := uint64(m.Src)<<32 | uint64(m.Dst)
		oldCopies := -1
		if v, ok := st.vals[bk][key]; ok {
			oldCopies = presentCopies(v)
		} else if v, ok := s.mem.blocks[bk][key]; ok {
			oldCopies = presentCopies(v)
		} else {
			for li := len(s.layers) - 1; li >= 0 && oldCopies < 0; li-- {
				if v, ok := lookupOverlay(s.layers[li].blocks[bk], m.Src, m.Dst); ok {
					oldCopies = presentCopies(v)
				}
			}
		}
		if oldCopies < 0 {
			n, err := base.copies(bk, m.Src, m.Dst)
			if err != nil {
				return staged{}, err
			}
			oldCopies = n
		}
		newCopies := 0
		if m.Op == OpInsert {
			newCopies = 1
		}
		if m.Op == OpDelete && oldCopies == 0 {
			continue // deleting an absent edge: keep the overlay minimal
		}
		vals := st.vals[bk]
		if vals == nil {
			vals = make(map[uint64]memVal)
			st.vals[bk] = vals
		}
		if _, existed := vals[key]; !existed {
			if _, inMem := s.mem.blocks[bk][key]; !inMem {
				st.newBytes += memEntryBytes
			}
		}
		w := m.Weight
		if !s.meta.Weighted {
			w = 0
		}
		vals[key] = memVal{w: w, del: m.Op == OpDelete}
		delta := int64(newCopies - oldCopies)
		st.countDelta[bk] += delta
		st.degDelta[m.Src] += int32(delta)
		st.mutations++
	}
	return st, nil
}

// commit folds a resolved batch into the memtable and bumps the content
// version of every touched block. Called with mu held; cannot fail.
func (s *Store) commit(st staged) {
	for bk, vals := range st.vals {
		dst := s.mem.blocks[bk]
		if dst == nil {
			dst = make(map[uint64]memVal, len(vals))
			s.mem.blocks[bk] = dst
		}
		for k, v := range vals {
			dst[k] = v
		}
		s.vers[bk.i][bk.j]++
	}
	for bk, d := range st.countDelta {
		if d != 0 {
			s.mem.countDelta[bk] += d
		}
	}
	for v, d := range st.degDelta {
		if d == 0 {
			continue
		}
		s.mem.degDelta[v] += d
		if s.degDelta == nil {
			s.degDelta = make([]int32, s.meta.NumVertices)
		} else if s.degShared {
			s.degDelta = append([]int32(nil), s.degDelta...)
			s.degShared = false
		}
		s.degDelta[v] += d
	}
	s.mem.mutations += st.mutations
	s.mem.bytes += st.newBytes
}

func presentCopies(v memVal) int {
	if v.del {
		return 0
	}
	return 1
}

// lookupOverlay binary-searches a sorted overlay slice for (src, dst).
func lookupOverlay(od []partition.OverlayEdge, src, dst graph.VertexID) (memVal, bool) {
	k := sort.Search(len(od), func(x int) bool {
		e := od[x].Edge
		return e.Src > src || (e.Src == src && e.Dst >= dst)
	})
	if k < len(od) && od[k].Edge.Src == src && od[k].Edge.Dst == dst {
		return memVal{w: od[k].Edge.Weight, del: od[k].Del}, true
	}
	return memVal{}, false
}

// baseReader counts copies of a key in the base grid, caching the
// per-block index and reader across a batch. All reads go through the
// device and are charged.
type baseReader struct {
	s   *Store
	idx map[blockKey]*partition.Index
	rds map[blockKey]*storage.Reader
}

func (b *baseReader) copies(bk blockKey, src, dst graph.VertexID) (int, error) {
	s := b.s
	if s.meta.EdgeCounts[bk.i][bk.j] == 0 {
		return 0, nil
	}
	l := &partition.Layout{Dev: s.dev, Meta: *s.meta}
	if b.idx == nil {
		b.idx = make(map[blockKey]*partition.Index)
		b.rds = make(map[blockKey]*storage.Reader)
	}
	idx, ok := b.idx[bk]
	if !ok {
		var err error
		idx, err = l.LoadIndex(bk.i, bk.j)
		if err != nil {
			return 0, err
		}
		b.idx[bk] = idx
		r, err := l.OpenSubBlock(bk.i, bk.j)
		if err != nil {
			return 0, err
		}
		b.rds[bk] = r
	}
	edges, _, err := l.ReadVertexEdges(b.rds[bk], idx, bk.i, src, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range edges {
		if e.Dst == dst {
			n++
		}
	}
	return n, nil
}

func (b *baseReader) close() {
	for _, r := range b.rds {
		if r != nil {
			r.Close()
		}
	}
}

// Seal forces the current memtable into an on-disk delta layer. Exposed
// for tests and the compaction trigger; the write path seals automatically
// at the memtable threshold.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.sealLocked()
}

// sealLocked publishes the memtable as delta layer files plus a manifest
// update (the atomic commit point), then marks the covered WAL span
// sealed. A device error before the manifest publish leaves only orphan
// files (swept at next open) and keeps the memtable intact for retry.
func (s *Store) sealLocked() error {
	if s.mem.mutations == 0 {
		return nil
	}
	id := s.meta.LastLayerID + 1
	ref := partition.LayerRef{ID: id, Mutations: s.mem.mutations}
	blocks := make(map[blockKey][]partition.OverlayEdge, len(s.mem.blocks))
	for _, bk := range sortedBlockKeys(s.mem.blocks) {
		od := resolveMem(s.mem.blocks[bk])
		var upserts, tombs []graph.Edge
		for _, e := range od {
			if e.Del {
				tombs = append(tombs, graph.Edge{Src: e.Edge.Src, Dst: e.Edge.Dst})
			} else {
				upserts = append(upserts, e.Edge)
			}
		}
		srcLo, _ := s.meta.Interval(bk.i)
		dstLo, _ := s.meta.Interval(bk.j)
		payload := encodeLayerBlock(upserts, tombs, graph.VertexID(srcLo), graph.VertexID(dstLo), s.meta.Weighted)
		if err := s.dev.WriteFile(partition.LayerBlockName(id, bk.i, bk.j), payload); err != nil {
			return fmt.Errorf("delta: sealing layer %d block (%d,%d): %w", id, bk.i, bk.j, err)
		}
		ref.Blocks = append(ref.Blocks, partition.LayerBlock{
			I: bk.i, J: bk.j,
			Upserts:   int64(len(upserts)),
			Tombs:     int64(len(tombs)),
			EdgeDelta: s.mem.countDelta[bk],
			Bytes:     int64(len(payload)),
			Sum:       partition.Checksum(payload),
		})
		blocks[bk] = od
	}
	degVerts := make([]graph.VertexID, 0, len(s.mem.degDelta))
	for v, d := range s.mem.degDelta {
		if d != 0 {
			degVerts = append(degVerts, v)
		}
	}
	sort.Slice(degVerts, func(a, b int) bool { return degVerts[a] < degVerts[b] })
	for _, v := range degVerts {
		ref.DegVertices = append(ref.DegVertices, uint32(v))
		ref.DegDeltas = append(ref.DegDeltas, s.mem.degDelta[v])
	}
	newMeta := cloneManifest(s.meta)
	newMeta.DeltaLayers = append(newMeta.DeltaLayers, ref)
	newMeta.LastLayerID = id
	newMeta.MutationsTotal += s.mem.mutations
	if err := partition.SaveManifest(s.dev, newMeta); err != nil {
		return fmt.Errorf("delta: publishing layer %d: %w", id, err)
	}
	// The seal marker is an optimization: if it is lost, replay re-applies
	// the covered batches against the published layer for a net-zero
	// effect.
	_ = s.log.Append(encodeSeal(nil, s.seq), true)
	s.meta = newMeta
	s.layers = append(s.layers, &layer{ref: ref, blocks: blocks})
	s.mem = newMemtable()
	s.sealedThrough = s.seq
	s.stats.Seals++
	return nil
}

// resolveMem sorts a memtable block into overlay order.
func resolveMem(vals map[uint64]memVal) []partition.OverlayEdge {
	od := make([]partition.OverlayEdge, 0, len(vals))
	for key, v := range vals {
		od = append(od, partition.OverlayEdge{
			Edge: graph.Edge{
				Src:    graph.VertexID(key >> 32),
				Dst:    graph.VertexID(key & 0xffffffff),
				Weight: v.w,
			},
			Del: v.del,
		})
	}
	sortOverlay(od)
	return od
}

func sortOverlay(od []partition.OverlayEdge) {
	sort.Slice(od, func(a, b int) bool {
		ea, eb := od[a].Edge, od[b].Edge
		return ea.Src < eb.Src || (ea.Src == eb.Src && ea.Dst < eb.Dst)
	})
}

func cloneManifest(m *partition.Manifest) *partition.Manifest {
	c := *m
	c.EdgeCounts = cloneGrid(m.EdgeCounts)
	c.BlockBytes = cloneGrid(m.BlockBytes)
	c.BlockSums = cloneGrid(m.BlockSums)
	if m.BlockGens != nil {
		c.BlockGens = cloneGrid(m.BlockGens)
	}
	c.DeltaLayers = append([]partition.LayerRef(nil), m.DeltaLayers...)
	return &c
}

func cloneGrid[T any](g [][]T) [][]T {
	if g == nil {
		return nil
	}
	out := make([][]T, len(g))
	for i := range g {
		out[i] = append([]T(nil), g[i]...)
	}
	return out
}

// NeedsCompaction reports whether the sealed-layer count or pending
// on-disk bytes have crossed the compaction thresholds.
func (s *Store) NeedsCompaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.layers) == 0 {
		return false
	}
	return len(s.layers) >= s.opts.CompactLayers || s.layerBytesLocked() >= s.opts.CompactBytes
}

func (s *Store) layerBytesLocked() int64 {
	var n int64
	for _, l := range s.layers {
		for _, b := range l.ref.Blocks {
			n += b.Bytes
		}
	}
	return n
}

// SetWALFaultInjector installs fn on the mutation WAL's append path, for
// chaos tests. See wal.Log.SetFaultInjector.
func (s *Store) SetWALFaultInjector(fn func(op, name string) error) {
	s.log.SetFaultInjector(fn)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MutationsTotal = s.meta.MutationsTotal + s.mem.mutations
	st.Generation = s.meta.Generation
	st.Layers = len(s.layers)
	st.LayerBytes = s.layerBytesLocked()
	st.MemtableBytes = s.mem.bytes
	for _, vals := range s.mem.blocks {
		st.MemtableKeys += int64(len(vals))
	}
	for _, n := range s.pins {
		st.Pins += n
	}
	for _, r := range s.retiredFiles {
		st.RetiredFiles += len(r.files)
	}
	st.WAL = s.log.Stats()
	return st
}

// NumVertices returns the (fixed) vertex count of the layout.
func (s *Store) NumVertices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta.NumVertices
}

// Close seals the store against further mutations. Pinned snapshots keep
// reading; the mutation WAL is closed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}
