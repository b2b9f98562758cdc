package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// runSpan locates one source's run inside the run section of a delta block.
type runSpan struct {
	Src VertexID // the run's source vertex
	Off uint32   // byte offset of the run's header in the run section
	Rec uint32   // record offset: how many edges the runs before it hold
}

// RunView is a delta block left undecoded: its run section and weight column
// as they sit in the payload, plus a directory of where each source's run
// starts. A pass over a narrow frontier decodes only the runs whose source is
// active (AppendActive) instead of expanding every edge and then dropping
// most of them in the scatter's filter test.
//
// The zero value is an empty view. A RunView is reused across blocks: Scan
// keeps the directory's memory. It aliases the payload it scanned, which
// must not change while the view is in use.
type RunView struct {
	// runs holds one span per run, sources strictly ascending, and a final
	// sentinel whose Off is the run section's length and Rec the edge count,
	// so run k spans [runs[k], runs[k+1]) in bytes and in records: own after
	// Scan, a RunDir's memory after Attach.
	runs []runSpan
	// own is the memory Scan writes the directory to. Attach leaves it alone,
	// so a view that adopted a RunDir and then scans another block never
	// writes into the RunDir.
	own              []runSpan
	body, weights    []byte
	srcBase, dstBase VertexID
	cell             Cell
}

// RunDir is a scanned block's directory on its own, in memory of exactly its
// size (12 bytes per run) that no view writes to: what is worth keeping of a
// Scan when the same block will be read again. The zero value holds none.
type RunDir struct {
	runs             []runSpan
	srcBase, dstBase VertexID
	cell             Cell
	weighted         bool
}

// Bytes returns the memory the directory occupies.
func (d RunDir) Bytes() int64 { return int64(len(d.runs)) * 12 }

// Dir returns a copy of the directory v's last Scan built.
func (v *RunView) Dir() RunDir {
	runs := make([]runSpan, len(v.runs)) // append would round the capacity up
	copy(runs, v.runs)
	return RunDir{runs: runs, srcBase: v.srcBase, dstBase: v.dstBase, cell: v.cell, weighted: v.weights != nil}
}

// Attach makes v a view of data under d, the directory an earlier Scan of the
// same bytes built, and reports whether it could: false means "Scan it". That
// data is those bytes again is for the caller to know — the same file, its
// checksum verified once more; Attach holds only the shape to d: header count,
// run section length, weight column. Every run decoded through the view is
// still checked against its directory entry (appendRun).
func (v *RunView) Attach(d RunDir, data []byte) bool {
	*v = RunView{own: v.own}
	n, body, weights, ok := cutDeltaBlock(data, d.weighted)
	if !ok || len(d.runs) == 0 {
		return false
	}
	if end := d.runs[len(d.runs)-1]; n != uint64(end.Rec) || len(body) != int(end.Off) {
		return false
	}
	*v = RunView{own: v.own, runs: d.runs, body: body, weights: weights, srcBase: d.srcBase, dstBase: d.dstBase, cell: d.cell}
	return true
}

// Scan makes v a view of the delta block in data and reports whether it
// could: false means "decode this block with AppendDeltaBlock", which then
// accepts it or names what is wrong with it. One pass over the run section
// checks everything that does not need a gap's value — the header count
// against the payload and the weight column, every run's source (in uint32,
// strictly above the previous run's), every run's length (at least one, within
// the bytes left and the edges still owed to the header), that each of its
// gaps terminates inside the section, and that the runs add up to the header
// count — so the directory never points outside the payload. What a gap
// decodes to (a varint over ten bytes, a destination outside uint32) is
// checked by AppendActive when, and if, the run is decoded.
//
// A block whose sources repeat or descend is valid for AppendDeltaBlock but
// has no per-source directory, and a zero-length run is nothing the encoder
// writes: both answer false rather than an error.
func (v *RunView) Scan(data []byte, srcBase, dstBase VertexID, weighted bool) bool {
	return v.scanIn(data, srcBase, dstBase, anyCell, weighted)
}

// ScanCell is Scan for a block of cell c: a source outside c declines the view,
// a destination outside c fails its run's decode.
func (v *RunView) ScanCell(data []byte, c Cell, weighted bool) bool {
	return v.scanIn(data, VertexID(c.SrcLo), VertexID(c.DstLo), c, weighted)
}

func (v *RunView) scanIn(data []byte, srcBase, dstBase VertexID, c Cell, weighted bool) bool {
	*v = RunView{own: v.own[:0], srcBase: srcBase, dstBase: dstBase, cell: c}
	if !v.scan(data, weighted) {
		*v = RunView{own: v.own[:0]} // a declined view is an empty one
		return false
	}
	v.runs = v.own
	return true
}

func (v *RunView) scan(data []byte, weighted bool) bool {
	srcBase, srcSpan := v.srcBase, v.cell.SrcHi-uint64(v.srcBase)
	n, body, weights, ok := cutDeltaBlock(data, weighted)
	if !ok || uint64(len(data)) > math.MaxUint32 {
		return false
	}
	v.weights = weights
	var rec uint64
	prev := int64(-1)
	for off := 0; off < len(body); {
		start := off
		srcRel, k := shortUvarint(body, off)
		if k == 0 {
			srcRel, k = binary.Uvarint(body[off:])
		}
		if k <= 0 || srcRel >= srcSpan {
			return false
		}
		off += k
		src := srcBase + VertexID(srcRel)
		if int64(src) <= prev {
			return false
		}
		prev = int64(src)
		runLen, k := shortUvarint(body, off)
		if k == 0 {
			runLen, k = binary.Uvarint(body[off:])
		}
		if k <= 0 {
			return false
		}
		off += k
		if runLen == 0 || runLen > uint64(len(body)-off) || runLen > n-rec {
			return false
		}
		// Step over runLen varints: a byte below 0x80 ends one. Eight bytes
		// at a time while at least eight gaps remain, since eight bytes end
		// at most eight.
		left := int(runLen)
		for ; left >= 8 && len(body)-off >= 8; off += 8 {
			left -= bits.OnesCount64(^binary.LittleEndian.Uint64(body[off:]) & 0x8080808080808080)
		}
		for ; left > 0; off++ {
			if off == len(body) {
				return false
			}
			if body[off] < 0x80 {
				left--
			}
		}
		v.own = append(v.own, runSpan{Src: src, Off: uint32(start), Rec: uint32(rec)})
		rec += runLen
	}
	if rec != n {
		return false
	}
	v.own = append(v.own, runSpan{Off: uint32(len(body)), Rec: uint32(n)})
	v.body = body
	return true
}

// AppendActive decodes the runs whose source's bit is set in filter (bit s of
// filter[s/64]; sources beyond it count as clear) and appends their edges to
// dst, in block order — exactly the edges a scatter filtered by the same set
// would keep of AppendDeltaBlock's output, weights included. Runs are located
// by walking the filter's set bits and seeking through the directory, so a
// call costs in proportion to the active sources, not to the block. On error
// dst comes back at its original length.
func (v *RunView) AppendActive(dst []Edge, filter []uint64) ([]Edge, error) {
	if len(v.runs) < 2 {
		return dst, nil
	}
	runs := v.runs[:len(v.runs)-1] // without the sentinel
	base := len(dst)
	pos := 0
	loW := int(runs[0].Src >> 6)
	hiW := min(int(runs[len(runs)-1].Src>>6)+1, len(filter))
	for w := loW; w < hiW; w++ {
		for word := filter[w]; word != 0; word &= word - 1 {
			s := VertexID(w<<6 + bits.TrailingZeros64(word))
			if pos = seekRun(runs, pos, s); pos == len(runs) {
				return dst, nil
			}
			if runs[pos].Src != s {
				continue
			}
			var err error
			if dst, err = v.appendRun(dst, pos); err != nil {
				return dst[:base], err
			}
			pos++
		}
	}
	return dst, nil
}

// seekRun returns the first index at or after pos whose source is >= s, or
// len(runs). Sources strictly ascend, so that index is at most s - runs[pos].Src
// entries past pos, and exactly that far when no source in between is missing:
// on a dense cell one compare finds it, and otherwise a binary search inside
// the bound does.
func seekRun(runs []runSpan, pos int, s VertexID) int {
	if pos == len(runs) || runs[pos].Src >= s {
		return pos
	}
	// Invariant: runs[lo].Src < s, and hi == len(runs) or runs[hi].Src >= s.
	lo, hi := pos, len(runs)
	if d := int(s - runs[pos].Src); d < hi-pos {
		hi = pos + d
	}
	if runs[hi-1].Src < s {
		return hi
	}
	for hi--; hi-lo > 1; {
		if mid := int(uint(lo+hi) >> 1); runs[mid].Src < s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// appendRun decodes run k and appends its edges to dst. The directory may be
// older than the payload (Attach), so the run's header is held to its entry —
// the source the entry names, inside the cell, and the entry's edge count —
// and its gaps must end where the next entry begins. On error dst comes back
// at its length.
func (v *RunView) appendRun(dst []Edge, k int) ([]Edge, error) {
	r, next := v.runs[k], v.runs[k+1]
	body, off := v.body[:next.Off], int(r.Off)
	srcRel, n := shortUvarint(body, off)
	if n == 0 {
		srcRel, n = binary.Uvarint(body[off:])
	}
	if n <= 0 {
		return dst, fmt.Errorf("graph: run view: bad source varint in the run of source %d", r.Src)
	}
	off += n
	if srcRel >= v.cell.SrcHi-uint64(v.srcBase) || v.srcBase+VertexID(srcRel) != r.Src {
		return dst, fmt.Errorf("graph: run view: run of source %d+%d where the directory gives source %d", v.srcBase, srcRel, r.Src)
	}
	runLen, n := shortUvarint(body, off)
	if n == 0 {
		runLen, n = binary.Uvarint(body[off:])
	}
	if n <= 0 {
		return dst, fmt.Errorf("graph: run view: bad length varint in the run of source %d", r.Src)
	}
	off += n
	want := int(next.Rec - r.Rec)
	if runLen != uint64(want) || want > len(body)-off {
		return dst, fmt.Errorf("graph: run view: run of source %d holds %d edges in %d bytes, directory says %d", r.Src, runLen, len(body)-off, want)
	}
	if want > cap(dst)-len(dst) {
		dst = slices.Grow(dst, want)
	}
	run := dst[len(dst) : len(dst)+want]
	off, err := decodeGaps(run, body, off, r.Src, int64(v.dstBase), v.cell)
	if err != nil {
		return dst, err
	}
	if off != len(body) {
		return dst, fmt.Errorf("graph: run view: gaps of source %d end at byte %d, the next run begins at %d", r.Src, off, len(body))
	}
	if v.weights != nil {
		fillWeights(run, v.weights[int(r.Rec)*WeightBytes:])
	}
	return dst[:len(dst)+want], nil
}
