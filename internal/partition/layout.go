// Package partition implements GraphSD's preprocessing phase and on-disk
// graph representation: the 2-D P×P grid of sub-blocks described in §3.2 of
// the paper, with per-sub-block vertex indexes enabling selective loads of
// active vertices' edges, plus the HUS-Graph-style and Lumos-style
// preprocessors used for the Figure 8 comparison.
package partition

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// ManifestName is the device-relative path of the layout manifest.
const ManifestName = "manifest.json"

// Manifest is the metadata of a partitioned graph layout, persisted as JSON
// on the device.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	System        string `json:"system"` // "graphsd", "husgraph", "lumos"
	NumVertices   int    `json:"num_vertices"`
	NumEdges      int64  `json:"num_edges"`
	P             int    `json:"p"` // number of vertex intervals
	Weighted      bool   `json:"weighted"`
	// EdgeCounts[i][j] is the number of edges in sub-block (i, j). A
	// HUS-Graph layout uses only EdgeCounts[i][0], row block i's count;
	// Lumos's is a grid like GraphSD's.
	EdgeCounts [][]int64 `json:"edge_counts"`
	// Codec names the sub-block payload encoding: "raw" (fixed-width
	// records, also the meaning of the empty string) or "delta"
	// (per-source-run zigzag varints, graph.CodecDelta).
	Codec string `json:"codec,omitempty"`
	// BlockBytes[i][j] is the on-disk payload size of sub-block (i, j) in
	// bytes. Recorded by grid builds; nil in row-major layouts, where
	// payload size follows from the edge count.
	BlockBytes [][]int64 `json:"block_bytes,omitempty"`
	// BlockSums[i][j] is the CRC32C (Castagnoli) checksum of sub-block
	// (i, j)'s on-disk payload, verified on every full-block load so
	// corruption is reported at the block that caused it. Recorded by grid
	// builds and required of them by Validate; nil in row-major layouts.
	BlockSums [][]uint32 `json:"block_sums,omitempty"`
	// ColSums[j] is the CRC32C checksum of HUS-Graph column block j's
	// payload, verified on every column load and required of a HUS-Graph
	// layout by Validate. Its row blocks are only read by vertex, so have no
	// sum (an older manifest's row_sums is ignored).
	ColSums []uint32 `json:"col_sums,omitempty"`

	// Generation counts compaction publishes of a mutable layout. Immutable
	// layouts stay at 0. Every compaction writes the blocks it rewrites
	// under new generation-qualified file names and bumps this, so a crash
	// between block writes and the manifest publish leaves only orphan
	// files, never a half-updated layout.
	Generation int `json:"generation,omitempty"`
	// BlockGens[i][j] is the generation whose file holds sub-block (i, j)'s
	// current payload and index: 0 names the original blocks/b_iiii_jjjj.*
	// paths, g > 0 the generation-qualified ones. Nil means all zero.
	BlockGens [][]int `json:"block_gens,omitempty"`
	// DegreesGen versions the out-degree table the same way; compactions
	// that fold delta-layer degree adjustments rewrite it under a new name.
	DegreesGen int `json:"degrees_gen,omitempty"`
	// DegreesSum is the CRC32C of the current out-degree table, verified by
	// LoadDegrees: the table sizes every scheduler estimate and divides every
	// PageRank contribution, and its length alone says nothing about its
	// content. Written by every builder and by compaction, required by
	// Validate; a layout from before it existed has to be rebuilt.
	DegreesSum *uint32 `json:"degrees_sum,omitempty"`
	// DeltaLayers lists the sealed, not-yet-compacted mutation layers
	// overlaying the base grid, oldest first. The counts, sizes and sums
	// above always describe the base blocks only; readers overlay the
	// layers through a merged view (see Overlay).
	DeltaLayers []LayerRef `json:"delta_layers,omitempty"`
	// MutationsTotal counts every mutation sealed into a delta layer over
	// the lifetime of the layout (compaction does not reset it), so the
	// serving metrics survive a restart.
	MutationsTotal int64 `json:"mutations_total,omitempty"`
	// LastLayerID is the highest delta-layer ID ever sealed. Compaction
	// removes layers from DeltaLayers but never rolls this back, so layer
	// IDs — and their payload file names — are never reused while an old
	// file might still await garbage collection.
	LastLayerID int `json:"last_layer_id,omitempty"`
}

// LayerRef describes one sealed delta layer in the manifest: which
// sub-blocks it touches, the on-device payload of each, and the sparse
// out-degree adjustments its mutations imply. A layer is immutable once
// published; compaction folds a prefix of the layer list into the base grid
// and removes it from the manifest in the same atomic publish.
type LayerRef struct {
	// ID is the layer's unique, monotonically increasing identifier; it
	// names the layer's block payload files (LayerBlockName).
	ID int `json:"id"`
	// Mutations is the number of acknowledged mutations sealed into this
	// layer (after per-key normalization, one per distinct mutated key).
	Mutations int64 `json:"mutations"`
	// Blocks lists the touched sub-blocks, in (i, j) order.
	Blocks []LayerBlock `json:"blocks"`
	// DegVertices/DegDeltas record the layer's sparse out-degree
	// adjustments: degree(DegVertices[k]) changes by DegDeltas[k].
	DegVertices []uint32 `json:"deg_vertices,omitempty"`
	DegDeltas   []int32  `json:"deg_deltas,omitempty"`
}

// LayerBlock is one sub-block's slice of a delta layer.
type LayerBlock struct {
	I int `json:"i"`
	J int `json:"j"`
	// Upserts and Tombs count the layer's inserted/replaced keys and
	// deletion tombstones in this sub-block.
	Upserts int64 `json:"upserts"`
	Tombs   int64 `json:"tombs,omitempty"`
	// EdgeDelta is how the layer changes the sub-block's merged edge count
	// (inserts of absent keys add, deletes of present keys subtract —
	// counting duplicate base copies, which a mutation removes together).
	EdgeDelta int64 `json:"edge_delta"`
	// Bytes and Sum are the on-device size and CRC32C of the layer's block
	// payload file.
	Bytes int64  `json:"bytes"`
	Sum   uint32 `json:"sum"`
}

// Layout is an opened partitioned graph on a device.
type Layout struct {
	Dev  *storage.Device
	Meta Manifest
	// Overlay, when non-nil, is a pinned set of pending edge mutations
	// (sealed delta layers plus a frozen memtable snapshot) merged into
	// every read: LoadSubBlockInto, LoadSubBlockPayloadFrom, ReadVertexEdges
	// and LoadDegrees all return the merged view. In that
	// case Meta must be the *merged* manifest — EdgeCounts, NumEdges and
	// BlockBytes adjusted for the overlay — while BlockSums keep the base
	// sums (only base payloads are verified; overlay output is synthesized
	// in memory). Nil for immutable layouts.
	Overlay Overlay
	// PrepCPU is the in-memory CPU time (bucketing, sorting, encoding) the
	// preprocessor spent building this layout, exclusive of device writes.
	// Zero for layouts opened with Load.
	PrepCPU time.Duration

	// decodeNanos accumulates wall time spent decoding block payloads into
	// edges. Block-granular loads only — the per-vertex on-demand path skips
	// the clock so its tight loop stays unperturbed. Concurrent fetch
	// workers add to it, hence atomic.
	decodeNanos atomic.Int64
}

// noteDecode charges decode wall time since t0.
func (l *Layout) noteDecode(t0 time.Time) { l.AddDecodeTime(time.Since(t0)) }

// AddDecodeTime charges d of decode work done outside this package on a
// payload LoadSubBlockPayloadFrom handed out, so that DecodeTime covers a
// block's decode wherever it ran.
func (l *Layout) AddDecodeTime(d time.Duration) { l.decodeNanos.Add(d.Nanoseconds()) }

// DecodeTime returns the cumulative payload decode time of this layout.
// With pipelined prefetch the decodes run on fetch workers, so this can
// exceed the wall time attributable to decoding.
func (l *Layout) DecodeTime() time.Duration { return time.Duration(l.decodeNanos.Load()) }

// FormatVersion is the manifest format version written by this package.
// Version history:
//
//	1 — fixed-width edge records, fixed 8-byte index entries; no payload
//	    checksums. Nothing writes it and nothing reads it any more.
//	2 — optional delta payload codec, varint-delta index entries,
//	    per-block on-disk sizes and CRC32C sums in the manifest
//
// Readers accept every version back to minFormatVersion.
const FormatVersion = 2

// minFormatVersion is the oldest manifest version still readable.
const minFormatVersion = 2

// Interval returns the half-open vertex range [lo, hi) of interval i.
// Intervals split [0, NumVertices) into P near-equal contiguous ranges.
func (m *Manifest) Interval(i int) (lo, hi int) {
	if i < 0 || i >= m.P {
		panic(fmt.Sprintf("partition: interval %d out of range [0,%d)", i, m.P))
	}
	per := m.intervalWidth()
	lo = i * per
	hi = lo + per
	if hi > m.NumVertices {
		hi = m.NumVertices
	}
	if lo > m.NumVertices {
		lo = m.NumVertices
	}
	return lo, hi
}

// Cell returns sub-block (i, j)'s vertex ranges: intervals i and j — for
// HUS-Graph column j, (-1, j), every source.
func (m *Manifest) Cell(i, j int) graph.Cell {
	jLo, jHi := m.Interval(j)
	c := graph.Cell{SrcHi: uint64(m.NumVertices), DstLo: uint64(jLo), DstHi: uint64(jHi)}
	if i >= 0 {
		iLo, iHi := m.Interval(i)
		c.SrcLo, c.SrcHi = uint64(iLo), uint64(iHi)
	}
	return c
}

// IntervalOf returns the interval that vertex v belongs to.
func (m *Manifest) IntervalOf(v graph.VertexID) int {
	return int(v) / m.intervalWidth()
}

// intervalWidth is the vertex count of every interval but perhaps the last.
func (m *Manifest) intervalWidth() int { return (m.NumVertices + m.P - 1) / m.P }

// IntervalLen returns the number of vertices in interval i.
func (m *Manifest) IntervalLen(i int) int {
	lo, hi := m.Interval(i)
	return hi - lo
}

// EdgeRecordBytes returns the in-memory (decoded) record size of one edge,
// which is also the on-disk record size under the raw codec.
func (m *Manifest) EdgeRecordBytes() int {
	if m.Weighted {
		return graph.EdgeBytes + graph.WeightBytes
	}
	return graph.EdgeBytes
}

// BlockCodec returns the sub-block payload codec. Manifests that fail
// Validate aside, the codec string always parses; unknown strings fall back
// to raw.
func (m *Manifest) BlockCodec() graph.Codec {
	c, _ := graph.ParseCodec(m.Codec)
	return c
}

// EdgeBytesTotal returns the total decoded edge payload in bytes — the
// number the engine's memory budgeting (buffer charges, prefetch window,
// ChooseP) works in, independent of the on-disk codec.
func (m *Manifest) EdgeBytesTotal() int64 {
	return m.NumEdges * int64(m.EdgeRecordBytes())
}

// EdgeDiskBytesTotal returns the total on-disk edge payload in bytes: the
// sum of recorded block sizes when the manifest has them, otherwise the
// fixed-record total. This is the number the I/O cost model works in.
func (m *Manifest) EdgeDiskBytesTotal() int64 {
	if m.BlockBytes == nil {
		return m.EdgeBytesTotal()
	}
	var total int64
	for _, row := range m.BlockBytes {
		for _, b := range row {
			total += b
		}
	}
	return total
}

// SubBlockEdges returns the edge count of sub-block (i, j).
func (m *Manifest) SubBlockEdges(i, j int) int64 {
	return m.EdgeCounts[i][j]
}

// SubBlockBytes returns the decoded size of sub-block (i, j) in bytes —
// what the edges occupy in memory once loaded, used for buffer charging and
// prefetch-window admission.
func (m *Manifest) SubBlockBytes(i, j int) int64 {
	return m.EdgeCounts[i][j] * int64(m.EdgeRecordBytes())
}

// SubBlockDiskBytes returns the on-disk payload size of sub-block (i, j):
// the recorded compressed size when available, the fixed-record size
// otherwise.
func (m *Manifest) SubBlockDiskBytes(i, j int) int64 {
	if m.BlockBytes == nil {
		return m.SubBlockBytes(i, j)
	}
	return m.BlockBytes[i][j]
}

// RowDiskBytes returns, for each source interval, the summed on-disk payload
// of its grid row's sub-blocks. The semi-external-memory cost model uses it
// to price a full iteration that skips every block of an inactive row.
func (m *Manifest) RowDiskBytes() []int64 {
	rows := make([]int64, m.P)
	for i := range rows {
		for j := 0; j < m.P; j++ {
			rows[i] += m.SubBlockDiskBytes(i, j)
		}
	}
	return rows
}

// NonEmptyBlocksPerRow returns, for each source interval, how many of its
// grid row's sub-blocks hold at least one edge — the per-row seek cap of the
// on-demand cost model (iosched.Config.BlocksPerRow): selective reads never
// open an empty sub-block.
func (m *Manifest) NonEmptyBlocksPerRow() []int {
	rows := make([]int, m.P)
	for i, row := range m.EdgeCounts {
		for _, n := range row {
			if n > 0 {
				rows[i]++
			}
		}
	}
	return rows
}

// SelectiveDiskBytesTotal returns the on-disk bytes that per-vertex
// selective reads would move for the whole edge set. Under the delta codec
// this is the recorded block sizes minus each block's edge-count header:
// ReadVertexEdges seeks to byte-indexed run offsets and never reads the
// header, which only full-block streams pay for. Raw blocks have no header.
func (m *Manifest) SelectiveDiskBytesTotal() int64 {
	if m.BlockBytes == nil || m.BlockCodec() != graph.CodecDelta {
		return m.EdgeDiskBytesTotal()
	}
	var total int64
	for i, row := range m.BlockBytes {
		for j, b := range row {
			if b == 0 {
				continue
			}
			total += b - int64(uvarintLen(uint64(m.EdgeCounts[i][j])))
		}
	}
	return total
}

// uvarintLen returns the encoded size of x as a binary uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// castagnoli is the CRC32C polynomial table behind every payload checksum
// in the layout; hardware-accelerated on amd64/arm64 via hash/crc32.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of payload — the integrity sum recorded in
// manifests and checkpoint headers.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// VerifyBlockSum checks payload against the recorded checksum of sub-block
// (i, j) of a grid layout, or of HUS-Graph column j, (-1, j).
func (m *Manifest) VerifyBlockSum(i, j int, payload []byte) error {
	if i < 0 {
		return verifySum(m.ColSums[j], payload)
	}
	return verifySum(m.BlockSums[i][j], payload)
}

func verifySum(want uint32, payload []byte) error {
	if got := Checksum(payload); got != want {
		return fmt.Errorf("checksum mismatch: payload crc32c %08x, manifest records %08x (%d bytes)",
			got, want, len(payload))
	}
	return nil
}

// Validate checks internal consistency of the manifest.
func (m *Manifest) Validate() error {
	if m.FormatVersion < minFormatVersion || m.FormatVersion > FormatVersion {
		return fmt.Errorf("partition: unsupported format version %d (supported %d..%d)",
			m.FormatVersion, minFormatVersion, FormatVersion)
	}
	codec, err := graph.ParseCodec(m.Codec)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	// Every whole-block read is verified against a recorded sum, so a
	// manifest without the sums of its layout shape is not loadable.
	if m.System == "husgraph" {
		if m.ColSums == nil {
			return fmt.Errorf("partition: husgraph manifest without column checksums")
		}
	} else if m.BlockSums == nil {
		return fmt.Errorf("partition: grid manifest without block checksums")
	}
	if m.DegreesSum == nil {
		return fmt.Errorf("partition: manifest without a degree-table checksum (degrees_sum): rebuild the layout")
	}
	if codec == graph.CodecDelta && m.BlockBytes == nil {
		return fmt.Errorf("partition: codec %q without recorded block sizes", m.Codec)
	}
	if m.P <= 0 {
		return fmt.Errorf("partition: non-positive interval count %d", m.P)
	}
	if err := checkGrid("block size", m.BlockBytes, m.P, func(b int64) bool { return b >= 0 }); err != nil {
		return err
	}
	if err := checkGrid("block checksum", m.BlockSums, m.P, nil); err != nil {
		return err
	}
	if m.ColSums != nil && len(m.ColSums) != m.P {
		return fmt.Errorf("partition: column checksums %d != P %d", len(m.ColSums), m.P)
	}
	if m.NumVertices < 0 || m.NumEdges < 0 {
		return fmt.Errorf("partition: negative counts v=%d e=%d", m.NumVertices, m.NumEdges)
	}
	if m.EdgeCounts == nil {
		return fmt.Errorf("partition: manifest without edge counts")
	}
	if err := checkGrid("edge count", m.EdgeCounts, m.P, func(c int64) bool { return c >= 0 }); err != nil {
		return err
	}
	var total int64
	for _, row := range m.EdgeCounts {
		for _, c := range row {
			total += c
		}
	}
	if total != m.NumEdges {
		return fmt.Errorf("partition: edge counts sum %d != NumEdges %d", total, m.NumEdges)
	}
	if m.Generation < 0 || m.DegreesGen < 0 || m.DegreesGen > m.Generation {
		return fmt.Errorf("partition: bad generations gen=%d degrees=%d", m.Generation, m.DegreesGen)
	}
	if err := checkGrid("block generation", m.BlockGens, m.P, func(g int) bool { return g >= 0 && g <= m.Generation }); err != nil {
		return err
	}
	lastID := 0
	for k, l := range m.DeltaLayers {
		if l.ID <= lastID {
			return fmt.Errorf("partition: delta layer IDs not increasing at entry %d (%d after %d)", k, l.ID, lastID)
		}
		lastID = l.ID
		if len(l.DegVertices) != len(l.DegDeltas) {
			return fmt.Errorf("partition: delta layer %d degree arrays disagree (%d vs %d)", l.ID, len(l.DegVertices), len(l.DegDeltas))
		}
		for _, v := range l.DegVertices {
			if int(v) >= m.NumVertices {
				return fmt.Errorf("partition: delta layer %d adjusts the degree of vertex %d of %d", l.ID, v, m.NumVertices)
			}
		}
		for _, b := range l.Blocks {
			if b.I < 0 || b.I >= m.P || b.J < 0 || b.J >= m.P {
				return fmt.Errorf("partition: delta layer %d block (%d,%d) outside grid", l.ID, b.I, b.J)
			}
			if b.Bytes < 0 || b.Upserts < 0 || b.Tombs < 0 {
				return fmt.Errorf("partition: delta layer %d block (%d,%d) negative sizes", l.ID, b.I, b.J)
			}
		}
	}
	// The next seal writes its files under LastLayerID+1, so an ID below a
	// listed layer's would overwrite that live layer's files.
	if m.LastLayerID < lastID {
		return fmt.Errorf("partition: last_layer_id %d below listed delta layer %d", m.LastLayerID, lastID)
	}
	return nil
}

// checkGrid checks that g, one of the manifest's per-cell tables, is absent or
// p×p with every entry passing ok — the shape every accessor subscripts by.
func checkGrid[T any](what string, g [][]T, p int, ok func(T) bool) error {
	if g != nil && len(g) != p {
		return fmt.Errorf("partition: %s rows %d != P %d", what, len(g), p)
	}
	for i, row := range g {
		if len(row) != p {
			return fmt.Errorf("partition: %s row %d has %d entries, want %d", what, i, len(row), p)
		}
		for _, v := range row {
			if ok != nil && !ok(v) {
				return fmt.Errorf("partition: bad %s %v in row %d", what, v, i)
			}
		}
	}
	return nil
}

// OverlayEdge is one resolved pending mutation: an upsert of Edge, or — when
// Del is set — a tombstone deleting every base copy of (Edge.Src, Edge.Dst).
type OverlayEdge struct {
	Edge graph.Edge
	Del  bool
}

// Overlay is a pinned, immutable set of pending edge mutations layered over
// a layout's base grid — sealed delta layers plus a frozen memtable
// snapshot, resolved so each mutated (src, dst) key appears exactly once.
// The delta package provides the implementation; partition only consumes it,
// which keeps the read path free of an upward dependency.
type Overlay interface {
	// BlockDelta returns sub-block (i, j)'s resolved mutations sorted by
	// (Src, Dst), or nil when the block has none. The slice is immutable.
	BlockDelta(i, j int) []OverlayEdge
	// BlockVersion returns the monotone content version of sub-block
	// (i, j) as of the pin — the generation component of cache keys.
	BlockVersion(i, j int) int64
	// AdjustDegrees applies the overlay's out-degree adjustments in place
	// to a base degree table.
	AdjustDegrees(deg []uint32)
}

// BlockVersion returns the content version of sub-block (i, j) for cache
// keying: the overlay's pinned version, or 0 for immutable layouts.
func (l *Layout) BlockVersion(i, j int) int64 {
	if l.Overlay == nil {
		return 0
	}
	return l.Overlay.BlockVersion(i, j)
}

// overlayDelta returns the overlay's resolved mutations for (i, j), nil
// when there is no overlay or it leaves the block untouched.
func (l *Layout) overlayDelta(i, j int) []OverlayEdge {
	if l.Overlay == nil {
		return nil
	}
	return l.Overlay.BlockDelta(i, j)
}

// SubBlockName returns the device-relative file name of sub-block (i, j)'s
// edge payload at generation 0.
func SubBlockName(i, j int) string { return fmt.Sprintf("blocks/b_%04d_%04d.edges", i, j) }

// IndexName returns the device-relative file name of sub-block (i, j)'s
// per-vertex offset index at generation 0.
func IndexName(i, j int) string { return fmt.Sprintf("blocks/b_%04d_%04d.idx", i, j) }

// SubBlockNameAt / IndexNameAt return the generation-qualified file names
// compactions write rewritten sub-blocks under. Generation 0 is the
// original (un-qualified) name, so immutable layouts are a degenerate case.
func SubBlockNameAt(gen, i, j int) string {
	if gen == 0 {
		return SubBlockName(i, j)
	}
	return fmt.Sprintf("blocks/g%06d_b_%04d_%04d.edges", gen, i, j)
}

func IndexNameAt(gen, i, j int) string {
	if gen == 0 {
		return IndexName(i, j)
	}
	return fmt.Sprintf("blocks/g%06d_b_%04d_%04d.idx", gen, i, j)
}

// LayerBlockName returns the file name of delta layer id's payload for
// sub-block (i, j).
func LayerBlockName(id, i, j int) string {
	return fmt.Sprintf("delta/l%06d_b_%04d_%04d.mut", id, i, j)
}

// DegreesNameAt returns the generation-qualified out-degree table name.
func DegreesNameAt(gen int) string {
	if gen == 0 {
		return DegreesName
	}
	return fmt.Sprintf("degrees_g%06d.bin", gen)
}

// BlockGen returns the generation of sub-block (i, j)'s current files.
func (m *Manifest) BlockGen(i, j int) int {
	if m.BlockGens == nil {
		return 0
	}
	return m.BlockGens[i][j]
}

// BlockName returns the current payload file of sub-block (i, j), resolving
// the per-block generation.
func (m *Manifest) BlockName(i, j int) string { return SubBlockNameAt(m.BlockGen(i, j), i, j) }

// BlockIndexName returns the current index file of sub-block (i, j).
func (m *Manifest) BlockIndexName(i, j int) string { return IndexNameAt(m.BlockGen(i, j), i, j) }

// DegreesFile returns the current out-degree table file name.
func (m *Manifest) DegreesFile() string { return DegreesNameAt(m.DegreesGen) }

// DeltaDiskBytes returns the summed on-device payload of the manifest's
// sealed delta layers — the "pending compaction" volume surfaced by stats
// and metrics.
func (m *Manifest) DeltaDiskBytes() int64 {
	var total int64
	for _, l := range m.DeltaLayers {
		for _, b := range l.Blocks {
			total += b.Bytes
		}
	}
	return total
}

// RowName returns the file name of row block i (edges grouped by source
// interval), the HUS-Graph layout's first edge copy.
func RowName(i int) string { return fmt.Sprintf("rows/r_%04d.edges", i) }

// ColName returns the file name of column block i (edges grouped by
// destination interval), used by the HUS-Graph layout's second edge copy.
func ColName(i int) string { return fmt.Sprintf("cols/c_%04d.edges", i) }

// DegreesName is the file holding per-vertex out-degrees (uint32 each).
const DegreesName = "degrees.bin"

// ChooseP returns the number of intervals needed so that one row of the
// grid (an edge block) fits in the memory budget, which is how the paper
// sizes P under its "memory limited to 5% of graph data" rule. The result
// is clamped to [1, maxP].
func ChooseP(totalEdgeBytes, memBudget int64, maxP int) int {
	if memBudget <= 0 || totalEdgeBytes <= 0 {
		return 1
	}
	p := int((totalEdgeBytes + memBudget - 1) / memBudget)
	if p < 1 {
		p = 1
	}
	if maxP > 0 && p > maxP {
		p = maxP
	}
	return p
}

// SaveManifest atomically publishes m as the device's manifest — the single
// commit point for builds, delta-layer seals and compactions: WriteFile stages
// the bytes in a temp file and renames, so readers observe either the old or
// the new manifest, never a prefix.
func SaveManifest(dev *storage.Device, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("partition: encoding manifest: %w", err)
	}
	return dev.WriteFile(ManifestName, data)
}

// Load opens an existing layout on the device.
func Load(dev *storage.Device) (*Layout, error) {
	data, err := dev.ReadFile(ManifestName)
	if err != nil {
		return nil, fmt.Errorf("partition: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("partition: decoding manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Layout{Dev: dev, Meta: m}, nil
}
