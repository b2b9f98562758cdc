package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Delta codec for edge payloads ("delta" in partition manifests). Sub-blocks
// hold edges from one narrow (source, destination) interval pair, sorted by
// (src, dst) — exactly the layout where storing destination gaps as zigzag
// varints beats the fixed 8/12-byte record.
//
// Block payload layout:
//
//	uvarint  n        edge count
//	runs              per-source runs (see below)
//	weights           n × float32 LE, present only in weighted blocks
//
// Each run encodes the consecutive edges of one source vertex:
//
//	uvarint  srcRel   src − srcBase
//	uvarint  runLen   number of edges in the run (≥ 1)
//	runLen × varint   zigzag dst gaps; the first gap is taken from dstBase,
//	                  each following gap from the previous dst
//
// Runs are self-contained given (srcBase, dstBase) — no decoder state
// crosses a run boundary — so a per-vertex byte index over run starts gives
// the same selective-load capability as fixed-width records. Weights live in
// a trailing column so the varint section stays densely packed and a
// vertex's weights can be fetched by record offset.

// Codec identifies an edge payload encoding.
type Codec int

const (
	// CodecRaw is the fixed-width record encoding (EncodeEdge/DecodeEdges).
	CodecRaw Codec = iota
	// CodecDelta is the per-source-run zigzag-delta varint encoding above.
	CodecDelta
)

// String returns the manifest/flag spelling of the codec.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecDelta:
		return "delta"
	default:
		return fmt.Sprintf("codec(%d)", int(c))
	}
}

// ParseCodec parses a codec name as spelled in manifests and CLI flags.
// The empty string means raw, so pre-codec manifests load unchanged.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "raw":
		return CodecRaw, nil
	case "delta":
		return CodecDelta, nil
	}
	return CodecRaw, fmt.Errorf("graph: unknown codec %q (want raw or delta)", s)
}

// EncodeDeltaRun appends one run to buf: the given edges must share a single
// source vertex (>= srcBase). Destinations may be in any order — unsorted
// input still round-trips, it just compresses worse.
func EncodeDeltaRun(buf []byte, edges []Edge, srcBase, dstBase VertexID) []byte {
	if len(edges) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(edges[0].Src-srcBase))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	prev := int64(dstBase)
	for _, e := range edges {
		d := int64(e.Dst)
		buf = binary.AppendVarint(buf, d-prev)
		prev = d
	}
	return buf
}

// AppendDeltaRuns decodes consecutive runs until data is exhausted,
// appending the edges to dst. Used for per-vertex selective decodes, where
// the byte range is known to cover whole runs. Weights are left zero: the
// selective path fetches them from the weight column by record offset.
func AppendDeltaRuns(dst []Edge, data []byte, srcBase, dstBase VertexID) ([]Edge, error) {
	return decodeDeltaRuns(dst, data, nil, len(data), srcBase, dstBase, anyCell)
}

// Cell is a grid cell's vertex ranges, sources [SrcLo, SrcHi) and destinations
// [DstLo, DstHi); a block of the cell is delta-coded at bases SrcLo and DstLo.
type Cell struct{ SrcLo, SrcHi, DstLo, DstHi uint64 }

var anyCell = Cell{SrcHi: 1 << 32, DstHi: 1 << 32} // every edge a uint32 names

// Check returns an error naming the first of edges outside c.
func (c Cell) Check(edges []Edge) error {
	for _, e := range edges {
		if uint64(e.Src)-c.SrcLo >= c.SrcHi-c.SrcLo || uint64(e.Dst)-c.DstLo >= c.DstHi-c.DstLo {
			return fmt.Errorf("graph: edge %d->%d outside cell [%d,%d)x[%d,%d)", e.Src, e.Dst, c.SrcLo, c.SrcHi, c.DstLo, c.DstHi)
		}
	}
	return nil
}

// decodeDeltaRuns is the one delta-run decoder: it decodes the runs of body
// until body is exhausted, appending at most max edges to dst. When weights
// is non-nil the k-th edge appended takes its weight from record k of that
// column (the caller has checked it holds max records), filled run by run
// after the gaps. dst is grown only when a run does not fit its spare
// capacity, and only by a run length already checked against the bytes left
// (a gap takes at least one), so no unvalidated count sizes an allocation.
// Every edge is held to cell c, by the compare a uint32 range check costs. On
// error dst comes back at its length. A varint of one or two bytes is read by
// shortUvarint, any other by binary.Uvarint; both read the first kind to the
// same value, so every verdict is binary.Uvarint's.
func decodeDeltaRuns(dst []Edge, body, weights []byte, max int, srcBase, dstBase VertexID, c Cell) ([]Edge, error) {
	base := len(dst)
	srcSpan := c.SrcHi - uint64(srcBase)
	for off := 0; off < len(body); {
		srcRel, k := shortUvarint(body, off)
		if k == 0 {
			srcRel, k = binary.Uvarint(body[off:])
		}
		if k <= 0 {
			return dst[:base], fmt.Errorf("graph: delta run: bad source varint")
		}
		off += k
		if srcRel >= srcSpan {
			return dst[:base], fmt.Errorf("graph: delta run: source %d+%d outside [%d,%d)", srcBase, srcRel, c.SrcLo, c.SrcHi)
		}
		src := srcBase + VertexID(srcRel)
		runLen, k := shortUvarint(body, off)
		if k == 0 {
			runLen, k = binary.Uvarint(body[off:])
		}
		if k <= 0 {
			return dst[:base], fmt.Errorf("graph: delta run: bad length varint")
		}
		off += k
		if runLen > uint64(len(body)-off) {
			return dst[:base], fmt.Errorf("graph: delta run: length %d exceeds %d remaining bytes", runLen, len(body)-off)
		}
		done := len(dst) - base
		if runLen > uint64(max-done) {
			return dst[:base], fmt.Errorf("graph: delta run: length %d exceeds the %d edges left of %d", runLen, max-done, max)
		}
		if int(runLen) > cap(dst)-len(dst) {
			dst = slices.Grow(dst, int(runLen))
		}
		run := dst[len(dst) : len(dst)+int(runLen)]
		var err error
		if off, err = decodeGaps(run, body, off, src, int64(dstBase), c); err != nil {
			return dst[:base], err
		}
		if weights != nil {
			fillWeights(run, weights[done*WeightBytes:])
		}
		dst = dst[:len(dst)+len(run)]
	}
	return dst, nil
}

// decodeGaps is the gap loop of decodeDeltaRuns and RunView.appendRun, a
// function of its own so that its state fits in registers; it returns the
// offset past run's gaps.
func decodeGaps(run []Edge, body []byte, off int, src VertexID, prev int64, c Cell) (int, error) {
	lo, span := c.DstLo, c.DstHi-c.DstLo
	for i := range run {
		ux, k := shortUvarint(body, off)
		if k == 0 {
			if ux, k = binary.Uvarint(body[off:]); k <= 0 {
				return off, fmt.Errorf("graph: delta run: bad gap varint at edge %d", i)
			}
		}
		off += k
		prev += int64(ux>>1) ^ -int64(ux&1) // zigzag
		if uint64(prev)-lo >= span {
			return off, fmt.Errorf("graph: delta run: destination %d outside [%d,%d)", prev, c.DstLo, c.DstHi)
		}
		run[i] = Edge{Src: src, Dst: VertexID(prev)}
	}
	return off, nil
}

// fillWeights gives run's edges, in order, the weights of col's records.
func fillWeights(run []Edge, col []byte) {
	for i := range run {
		run[i].Weight = bitsToFloat(binary.LittleEndian.Uint32(col[i*WeightBytes:]))
	}
}

// shortUvarint reads a uvarint of one or two bytes at b[off:], its second byte
// inside b, without a branch on which (gaps at P = 8 are a mix of both): the
// length is 1 plus the first byte's top bit, which also masks the second byte
// in. A length of 0 means it is not such a varint.
func shortUvarint(b []byte, off int) (uint64, int) {
	if off+2 > len(b) || b[off]&b[off+1] >= 0x80 {
		return 0, 0
	}
	b0, b1 := uint64(b[off]), uint64(b[off+1])
	two := b0 >> 7
	return b0&0x7f | b1<<7&-two, 1 + int(two)
}

// EncodeDeltaBlock appends the delta encoding of a whole block to buf:
// edge-count header, one run per maximal group of consecutive equal-source
// edges, then the weight column if weighted. Any edge order round-trips;
// src-sorted input yields one run per source and the best ratio.
func EncodeDeltaBlock(buf []byte, edges []Edge, srcBase, dstBase VertexID, weighted bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for start := 0; start < len(edges); {
		end := start + 1
		for end < len(edges) && edges[end].Src == edges[start].Src {
			end++
		}
		buf = EncodeDeltaRun(buf, edges[start:end], srcBase, dstBase)
		start = end
	}
	if weighted {
		for _, e := range edges {
			buf = binary.LittleEndian.AppendUint32(buf, floatBits(e.Weight))
		}
	}
	return buf
}

// AppendDeltaBlock decodes a delta block produced by EncodeDeltaBlock,
// appending the edges to dst and returning the extended slice. The header's
// edge count sizes dst once, exactly, after it has been checked against the
// payload: a gap takes at least one byte, so a count above len(data) — or,
// weighted, a weight column longer than the payload — is rejected before
// anything is reserved, and the reservation never exceeds 12 bytes per
// payload byte.
func AppendDeltaBlock(dst []Edge, data []byte, srcBase, dstBase VertexID, weighted bool) ([]Edge, error) {
	return appendDeltaBlock(dst, data, srcBase, dstBase, anyCell, weighted)
}

// AppendDeltaCell is AppendDeltaBlock for a block of cell c: it refuses an edge
// outside c, which a checksum does not rule out and a scatter indexes by.
func AppendDeltaCell(dst []Edge, data []byte, c Cell, weighted bool) ([]Edge, error) {
	return appendDeltaBlock(dst, data, VertexID(c.SrcLo), VertexID(c.DstLo), c, weighted)
}

func appendDeltaBlock(dst []Edge, data []byte, srcBase, dstBase VertexID, c Cell, weighted bool) ([]Edge, error) {
	n, body, weights, ok := cutDeltaBlock(data, weighted)
	if !ok {
		return dst, fmt.Errorf("graph: delta block: no edge count that fits %d payload bytes (weighted %t)", len(data), weighted)
	}
	base := len(dst)
	dst, err := decodeDeltaRuns(reserve(dst, int(n)), body, weights, int(n), srcBase, dstBase, c)
	if err != nil {
		return dst, err
	}
	if got := len(dst) - base; uint64(got) != n {
		return dst[:base], fmt.Errorf("graph: delta block: decoded %d edges, header says %d", got, n)
	}
	return dst, nil
}

// cutDeltaBlock splits a delta block into its header count, run section and
// weight column; ok is false when no count is there or the payload cannot hold
// that many gaps, or that many weights.
func cutDeltaBlock(data []byte, weighted bool) (n uint64, body, weights []byte, ok bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) {
		return 0, nil, nil, false
	}
	body = data[k:]
	if weighted {
		weightBytes := int(n) * WeightBytes
		if weightBytes > len(body) {
			return 0, nil, nil, false
		}
		body, weights = body[:len(body)-weightBytes], body[len(body)-weightBytes:]
	}
	return n, body, weights, true
}
