package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// LoadSubBlock reads sub-block (i, j) in full as one sequential stream and
// decodes its edges. Empty sub-blocks cost no I/O.
func (l *Layout) LoadSubBlock(i, j int) ([]graph.Edge, error) {
	edges, _, err := l.LoadSubBlockInto(i, j, nil, nil)
	return edges, err
}

// LoadSubBlockInto reads sub-block (i, j) like LoadSubBlock, but decodes
// into dst (reset to length zero) and reads the raw bytes through buf,
// growing either only when too small. The possibly-grown slices are
// returned; the I/O charge and fault semantics are identical to
// LoadSubBlock. It opens and closes the block's file around the one load, so
// it suits one-off whole-block reads — LoadSubBlock, compaction, a replay
// loop reusing one dst/buf pair; an engine run reads through kept
// BlockReaders (LoadSubBlockFrom) instead.
func (l *Layout) LoadSubBlockInto(i, j int, dst []graph.Edge, buf []byte) ([]graph.Edge, []byte, error) {
	r := l.BlockReader(i, j)
	defer r.Close()
	return l.LoadSubBlockFrom(r, i, j, dst, buf)
}

// BlockLabel names block (i, j) in errors. A run addresses a HUS-Graph
// layout's files as it does sub-blocks — row block i as (i, -1), column block
// j as (-1, j) — which BlockReader, LoadIndex (a row's) and LoadSubBlockFrom
// (a column's) resolve; rows are read by vertex only, columns only whole. So
// the label is "sub-block (i,j)", "row i" or "column j".
func BlockLabel(i, j int) string {
	switch {
	case j < 0:
		return fmt.Sprintf("row %d", i)
	case i < 0:
		return fmt.Sprintf("column %d", j)
	}
	return fmt.Sprintf("sub-block (%d,%d)", i, j)
}

// BlockReader returns a reader of sub-block (i, j)'s base file, or nil when
// there is none: the block is empty or — only one the overlay has mutated can
// be — lives in the overlay alone. A HUS-Graph row or column always has a
// reader, so a missing file fails the first read, naming it. The reader opens
// the file at its first read; the caller closes it, after one load or after
// every load of a run.
func (l *Layout) BlockReader(i, j int) *storage.Reader {
	switch {
	case j < 0:
		return l.Dev.Reader(RowName(i))
	case i < 0:
		return l.Dev.Reader(ColName(j))
	case l.Meta.SubBlockEdges(i, j) == 0:
		return nil
	}
	name := l.Meta.BlockName(i, j)
	if l.overlayDelta(i, j) != nil && !l.Dev.Exists(name) {
		return nil
	}
	return l.Dev.Reader(name)
}

// LoadSubBlockFrom is LoadSubBlockInto through r, the block's BlockReader:
// kept across loads, it makes each one pread — charge, CRC and merge the same.
// A HUS-Graph column (i < 0) is never overlaid, and is read even when empty:
// the manifest records no column's size.
func (l *Layout) LoadSubBlockFrom(r *storage.Reader, i, j int, dst []graph.Edge, buf []byte) ([]graph.Edge, []byte, error) {
	dst = dst[:0]
	if i < 0 {
		return l.loadBaseBlockInto(r, i, j, dst, buf)
	}
	if l.Meta.SubBlockEdges(i, j) == 0 {
		// With an overlay, Meta carries the merged count: zero means the
		// tombstones erased every base edge, so there is nothing to read.
		return dst, buf, nil
	}
	od := l.overlayDelta(i, j)
	if od == nil {
		return l.loadBaseBlockInto(r, i, j, dst, buf)
	}
	var base []graph.Edge
	if r != nil {
		var err error
		base, buf, err = l.loadBaseBlockInto(r, i, j, nil, buf)
		if err != nil {
			return dst, buf, err
		}
	}
	// Meta carries the merged count, so the merge too writes into memory
	// sized once; no merge outgrows its inputs, whatever a manifest claims.
	n := min(int(l.Meta.SubBlockEdges(i, j)), len(base)+len(od))
	return MergeOverlay(slices.Grow(dst, n), base, od), buf, nil
}

// loadBaseBlockInto reads and decodes sub-block (i, j)'s base payload —
// LoadSubBlockFrom without the overlay merge. Either codec refuses an edge
// outside the cell, which a checksum does not rule out and a scatter indexes by.
func (l *Layout) loadBaseBlockInto(r *storage.Reader, i, j int, dst []graph.Edge, buf []byte) ([]graph.Edge, []byte, error) {
	buf, err := l.readBlockVerified(r, i, j, buf)
	if err != nil {
		return dst, buf, err
	}
	t0 := time.Now()
	if l.Meta.BlockCodec() == graph.CodecDelta {
		dst, err = graph.AppendDeltaCell(dst, buf, l.Meta.Cell(i, j), l.Meta.Weighted)
	} else {
		base := len(dst)
		if dst, err = graph.AppendEdges(dst, buf, l.Meta.Weighted); err == nil {
			err = l.Meta.Cell(i, j).Check(dst[base:])
		}
	}
	l.noteDecode(t0)
	if err != nil {
		return dst, buf, fmt.Errorf("partition: decoding %s [%s]: %w", BlockLabel(i, j), l.Meta.BlockCodec(), err)
	}
	return dst, buf, nil
}

// ColumnBytes is the decoded size of HUS-Graph column block j, which under the
// raw codec is its file's length: found by a stat, which the device does not
// charge, and 0 when the file is missing (its load then fails).
func (l *Layout) ColumnBytes(j int) int64 {
	n, _ := l.Dev.Size(ColName(j))
	return n
}

// readBlockVerified reads sub-block (i, j)'s on-disk payload from r through
// buf in one sequential stream and checks it against the manifest's CRC: the
// step every whole-block read starts with.
func (l *Layout) readBlockVerified(r *storage.Reader, i, j int, buf []byte) ([]byte, error) {
	buf, err := r.ReadFileInto(buf)
	if err != nil {
		return buf, fmt.Errorf("partition: loading %s [%s]: %w", BlockLabel(i, j), l.Meta.BlockCodec(), err)
	}
	if err := l.Meta.VerifyBlockSum(i, j, buf); err != nil {
		return buf, fmt.Errorf("partition: %s [%s]: %w", BlockLabel(i, j), l.Meta.BlockCodec(), err)
	}
	return buf, nil
}

// LoadSubBlockPayloadFrom reads sub-block (i, j) in full from r, the block's
// BlockReader, through buf (grown only when too small), and returns its edges
// as a delta-coded payload *without* decoding it — the form the compressed
// cache tier stores and a run view scans. On a delta layout with no overlay on
// the block the result is buf's memory holding the verified on-disk bytes, the
// caller's to reuse once done with the payload; a merged payload, or a raw
// block's (re-encoded once, charged as decode time), is freshly allocated.
// Decode it with graph.AppendDeltaBlock using the interval bases of (i, j),
// reporting the time through AddDecodeTime. Empty sub-blocks return a nil
// payload and no I/O.
func (l *Layout) LoadSubBlockPayloadFrom(r *storage.Reader, i, j int, buf []byte) ([]byte, error) {
	if l.Meta.SubBlockEdges(i, j) == 0 {
		return nil, nil
	}
	if od := l.overlayDelta(i, j); od != nil {
		// Mutated blocks synthesize the merged payload: the compressed
		// cache tier stores the merged view, keyed by content version like
		// every other cache entry.
		edges, _, err := l.LoadSubBlockFrom(r, i, j, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(edges) == 0 {
			return nil, nil
		}
		t0 := time.Now()
		c := l.Meta.Cell(i, j)
		payload := graph.EncodeDeltaBlock(nil, edges, graph.VertexID(c.SrcLo), graph.VertexID(c.DstLo), l.Meta.Weighted)
		l.noteDecode(t0)
		return payload, nil
	}
	buf, err := l.readBlockVerified(r, i, j, buf)
	if err != nil {
		return nil, err
	}
	if l.Meta.BlockCodec() == graph.CodecDelta {
		return buf, nil
	}
	t0 := time.Now()
	c := l.Meta.Cell(i, j)
	edges, err := graph.AppendEdges(nil, buf, l.Meta.Weighted)
	if err != nil {
		l.noteDecode(t0)
		return nil, fmt.Errorf("partition: decoding sub-block (%d,%d) [raw]: %w", i, j, err)
	}
	payload := graph.EncodeDeltaBlock(nil, edges, graph.VertexID(c.SrcLo), graph.VertexID(c.DstLo), l.Meta.Weighted)
	l.noteDecode(t0)
	return payload, nil
}

// readWeightColumn fills edges' weights from the trailing float32 column:
// records [r0, r1) read at column base wbase, through buf (grown as
// needed and returned).
func (l *Layout) readWeightColumn(r *storage.Reader, buf []byte, wbase, r0, r1 int64, edges []graph.Edge) ([]byte, error) {
	n := (r1 - r0) * graph.WeightBytes
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := r.AutoReadAt(buf, wbase+r0*graph.WeightBytes); err != nil {
		return buf, err
	}
	for k := range edges {
		edges[k].Weight = math.Float32frombits(binary.LittleEndian.Uint32(buf[k*graph.WeightBytes:]))
	}
	return buf, nil
}

// Index locates each vertex's edges inside one sub-block payload.
type Index struct {
	// Rec holds CSR record offsets: the edges of vertex v (lo <= v < hi)
	// occupy records [Rec[v-lo], Rec[v-lo+1]) of the decoded sub-block.
	Rec []int64
	// Off holds byte offsets into delta-codec payloads: vertex v's run
	// occupies bytes [Off[v-lo], Off[v-lo+1]), and Off[hi-lo] marks the end
	// of the varint section — the start of the weight column. Nil for raw
	// blocks, where byte positions follow from Rec and the record size.
	Off []int64

	srcBase, dstBase graph.VertexID
	// blockJ is the destination interval of the sub-block this index
	// belongs to, or -1 for row indexes — the coordinate the selective read
	// path needs to look up overlay mutations.
	blockJ int
}

// LoadIndex reads the per-vertex offset index of sub-block (i, j), or of
// HUS-Graph row i (j < 0). The read is charged sequentially, matching the
// 2|V|·N index/value term of the paper's C_r model.
func (l *Layout) LoadIndex(i, j int) (*Index, error) {
	iLo, _ := l.Meta.Interval(i)
	if j < 0 { // rows are raw and never overlaid
		rec, _, err := l.loadIndexFile(RowIndexName(i), i, false, l.Meta.EdgeCounts[i][0], 0)
		if err != nil {
			return nil, err
		}
		return &Index{Rec: rec, srcBase: graph.VertexID(iLo), blockJ: -1}, nil
	}
	// With an overlay the manifest's counts and sizes are merged ones, not the
	// base file's, so the index's ends have nothing to be held to.
	records, diskBytes := l.Meta.SubBlockEdges(i, j), l.Meta.SubBlockDiskBytes(i, j)
	if l.Overlay != nil {
		records = -1
	}
	rec, off, err := l.loadIndexFile(l.Meta.BlockIndexName(i, j), i, l.Meta.BlockCodec() == graph.CodecDelta, records, diskBytes)
	if err != nil {
		return nil, err
	}
	jLo, _ := l.Meta.Interval(j)
	return &Index{Rec: rec, Off: off, srcBase: graph.VertexID(iLo), dstBase: graph.VertexID(jLo), blockJ: j}, nil
}

// loadIndexFile reads an index of interval i — a sub-block's or a HUS-Graph
// row's — and checks what the selective paths subscript, size and seek by: it
// has IntervalLen(i)+1 entries (see Index), starts at 0, and ends at the file's
// record count (unless records < 0) and inside its diskBytes. Offsets ascend by
// construction, so the ends bound the rest. A well-formed index of the wrong
// shape is an error naming the file here, not a panic later.
func (l *Layout) loadIndexFile(name string, i int, delta bool, records, diskBytes int64) (rec, off []int64, err error) {
	data, err := l.Dev.ReadFile(name)
	if err != nil {
		return nil, nil, fmt.Errorf("partition: loading index %s: %w", name, err)
	}
	rec, off, err = decodeIndexData(data, delta)
	switch last := l.Meta.IntervalLen(i); {
	case err != nil:
	case len(rec) != last+1:
		err = fmt.Errorf("%d entries, interval %d needs %d", len(rec), i, last+1)
	case rec[0] != 0:
		err = fmt.Errorf("records start at %d, not 0", rec[0])
	case records < 0:
	case rec[last] != records:
		err = fmt.Errorf("records end at %d, the file holds %d edges", rec[last], records)
	case off != nil && off[last] > diskBytes:
		err = fmt.Errorf("run bytes end at %d, the file holds %d bytes", off[last], diskBytes)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("partition: index %s: %w", name, err)
	}
	return rec, off, nil
}

// decodeIndexData parses an index file: a uvarint count followed by uvarint
// deltas of the monotone offsets — and, when delta is true, a second delta
// sequence of run byte offsets.
func decodeIndexData(data []byte, delta bool) (rec, off []int64, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("bad index entry count")
	}
	sections := 1
	if delta {
		sections = 2
	}
	// Each entry takes at least one byte per section.
	if n*uint64(sections) > uint64(len(data)-k) {
		return nil, nil, fmt.Errorf("index entry count %d exceeds %d payload bytes", n, len(data)-k)
	}
	rec, used, err := decodeMonotoneDeltas(data[k:], int(n))
	if err != nil {
		return nil, nil, fmt.Errorf("record offsets: %w", err)
	}
	pos := k + used
	if delta {
		off, used, err = decodeMonotoneDeltas(data[pos:], int(n))
		if err != nil {
			return nil, nil, fmt.Errorf("byte offsets: %w", err)
		}
		pos += used
	}
	if pos != len(data) {
		return nil, nil, fmt.Errorf("index has %d trailing bytes", len(data)-pos)
	}
	return rec, off, nil
}

// decodeMonotoneDeltas reads n uvarint deltas and returns the running sums
// plus the number of bytes consumed.
func decodeMonotoneDeltas(data []byte, n int) ([]int64, int, error) {
	vals := make([]int64, n)
	pos := 0
	var sum uint64
	for i := 0; i < n; i++ {
		d, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("bad delta varint at entry %d", i)
		}
		pos += k
		sum += d
		if sum > 1<<62 {
			return nil, 0, fmt.Errorf("offset overflow at entry %d", i)
		}
		vals[i] = int64(sum)
	}
	return vals, pos, nil
}

// OpenSubBlock opens sub-block (i, j) for positional reads. The caller must
// Close the reader. Opening a block with no base file (see BlockReader)
// returns (nil, nil): ReadVertexEdges serves those vertices from the overlay
// alone and tolerates a nil reader.
func (l *Layout) OpenSubBlock(i, j int) (*storage.Reader, error) {
	r := l.BlockReader(i, j)
	if r == nil {
		return nil, nil
	}
	r, err := l.Dev.Open(r.Name())
	if err != nil {
		return nil, fmt.Errorf("partition: opening sub-block (%d,%d): %w", i, j, err)
	}
	return r, nil
}

// ReadVertexEdges reads the edges of vertex v from an open sub-block of
// interval i using its index. The access is auto-classified: contiguous
// active vertices produce sequential reads, scattered ones random reads —
// the S_seq / S_ran split of the paper's on-demand cost model emerges from
// the access pattern itself. Under the delta codec the vertex's run is read
// by its compressed byte range (fewer bytes, same classification); weights
// come from the trailing column in a second positional read.
func (l *Layout) ReadVertexEdges(r *storage.Reader, idx *Index, i int, v graph.VertexID, buf []byte) ([]graph.Edge, []byte, error) {
	lo, hi := l.Meta.Interval(i)
	if int(v) < lo || int(v) >= hi {
		return nil, buf, fmt.Errorf("partition: vertex %d outside interval %d [%d,%d)", v, i, lo, hi)
	}
	if l.Overlay != nil && idx.blockJ >= 0 {
		if sub := OverlayVertexRange(l.Overlay.BlockDelta(i, idx.blockJ), v); len(sub) > 0 {
			var base []graph.Edge
			var err error
			if r != nil {
				base, buf, err = l.readVertexBase(r, idx, v, lo, buf)
				if err != nil {
					return nil, buf, err
				}
			}
			return MergeOverlay(nil, base, sub), buf, nil
		}
	}
	if r == nil {
		// Pure-overlay block (no base file) and the overlay holds nothing
		// for v: the vertex has no edges here.
		return nil, buf, nil
	}
	return l.readVertexBase(r, idx, v, lo, buf)
}

// readVertexBase reads vertex v's base run — ReadVertexEdges without the
// overlay merge. Positional reads are never CRC-verified, so every edge read is
// held to the cell it came from: its source is v and its destination lies in
// the block's destination interval (any vertex, for a row index). A damaged
// record is an error naming the file, never a subscript for the kernel.
func (l *Layout) readVertexBase(r *storage.Reader, idx *Index, v graph.VertexID, lo int, buf []byte) ([]graph.Edge, []byte, error) {
	read := l.readVertexEdgesRaw
	if idx.Off != nil {
		read = l.readVertexEdgesDelta
	}
	edges, buf, err := read(r, idx, v, lo, buf)
	if err != nil {
		return nil, buf, err
	}
	dLo, dHi := 0, l.Meta.NumVertices
	if idx.blockJ >= 0 {
		dLo, dHi = l.Meta.Interval(idx.blockJ)
	}
	if err := (graph.Cell{SrcLo: uint64(v), SrcHi: uint64(v) + 1, DstLo: uint64(dLo), DstHi: uint64(dHi)}).Check(edges); err != nil {
		return nil, buf, fmt.Errorf("partition: %s [%s]: vertex %d: %w", r.Name(), l.Meta.BlockCodec(), v, err)
	}
	return edges, buf, nil
}

// readVertexEdgesRaw is the raw-codec arm of readVertexBase.
func (l *Layout) readVertexEdgesRaw(r *storage.Reader, idx *Index, v graph.VertexID, lo int, buf []byte) ([]graph.Edge, []byte, error) {
	start, end := idx.Rec[int(v)-lo], idx.Rec[int(v)-lo+1]
	if start == end {
		return nil, buf, nil
	}
	rec := int64(l.Meta.EdgeRecordBytes())
	n := (end - start) * rec
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := r.AutoReadAt(buf, start*rec); err != nil {
		return nil, buf, fmt.Errorf("partition: %s [raw]: reading edges of vertex %d: %w", r.Name(), v, err)
	}
	edges, err := graph.DecodeEdges(buf, l.Meta.Weighted)
	if err != nil {
		return nil, buf, fmt.Errorf("partition: %s [raw]: decoding edges of vertex %d: %w", r.Name(), v, err)
	}
	return edges, buf, nil
}

// readVertexEdgesDelta is the delta-codec arm of readVertexBase.
func (l *Layout) readVertexEdgesDelta(r *storage.Reader, idx *Index, v graph.VertexID, lo int, buf []byte) ([]graph.Edge, []byte, error) {
	k := int(v) - lo
	o0, o1 := idx.Off[k], idx.Off[k+1]
	if o0 == o1 {
		return nil, buf, nil
	}
	if int64(cap(buf)) < o1-o0 {
		buf = make([]byte, o1-o0)
	}
	buf = buf[:o1-o0]
	if _, err := r.AutoReadAt(buf, o0); err != nil {
		return nil, buf, fmt.Errorf("partition: %s [delta]: reading edges of vertex %d: %w", r.Name(), v, err)
	}
	edges, err := graph.AppendDeltaRuns(nil, buf, idx.srcBase, idx.dstBase)
	if err != nil {
		return nil, buf, fmt.Errorf("partition: %s [delta]: decoding edges of vertex %d: %w", r.Name(), v, err)
	}
	// Positional reads are never CRC-verified, so the index's record count is
	// the one check on a damaged run — and what sizes the weight read below.
	r0, r1 := idx.Rec[k], idx.Rec[k+1]
	if int64(len(edges)) != r1-r0 {
		return nil, buf, fmt.Errorf("partition: %s [delta]: vertex %d decoded %d edges, index says %d", r.Name(), v, len(edges), r1-r0)
	}
	if l.Meta.Weighted {
		wbase := idx.Off[len(idx.Off)-1]
		if buf, err = l.readWeightColumn(r, buf, wbase, r0, r1, edges); err != nil {
			return nil, buf, fmt.Errorf("partition: %s [delta]: reading weights of vertex %d: %w", r.Name(), v, err)
		}
	}
	return edges, buf, nil
}

// LoadDegrees reads the per-vertex out-degree table and verifies it against
// the manifest's checksum, then folds in the overlay's adjustments when one is
// pinned.
func (l *Layout) LoadDegrees() ([]uint32, error) {
	name := l.Meta.DegreesFile()
	data, err := l.Dev.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("partition: loading degrees: %w", err)
	}
	if len(data) != l.Meta.NumVertices*4 {
		return nil, fmt.Errorf("partition: degree table %s has %d bytes, want %d", name, len(data), l.Meta.NumVertices*4)
	}
	if err := verifySum(*l.Meta.DegreesSum, data); err != nil {
		return nil, fmt.Errorf("partition: degree table %s: %w", name, err)
	}
	deg := make([]uint32, l.Meta.NumVertices)
	for v := range deg {
		deg[v] = binary.LittleEndian.Uint32(data[v*4:])
	}
	if l.Overlay != nil {
		l.Overlay.AdjustDegrees(deg)
	}
	return deg, nil
}

// ChargeValues charges one sequential transfer in class c — SeqRead for the
// read, SeqWrite for the write-back — of the vertex values of every interval i
// for which in(i) holds: the |V|·N terms of both of the paper's I/O cost
// formulas, paid for the intervals a pass touches (DESIGN.md §11). Vertex
// values live in memory in this implementation, but the paper's model accounts
// them. Over every interval it charges the whole array, the paper's constant;
// over none it charges nothing.
func (l *Layout) ChargeValues(c storage.Class, in func(i int) bool) {
	var n int64
	for i := 0; i < l.Meta.P; i++ {
		if in(i) {
			n += int64(l.Meta.IntervalLen(i))
		}
	}
	if n > 0 {
		l.Dev.Charge(c, n*graph.VertexValueBytes)
	}
}
