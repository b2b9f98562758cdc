package graph

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// FuzzEdgeRecordRoundTrip checks that the fixed-width edge record codec is
// an exact inverse pair for any (src, dst, weight, weighted) input.
func FuzzEdgeRecordRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), float32(0), false)
	f.Add(uint32(1), uint32(2), float32(1.5), true)
	f.Add(^uint32(0), ^uint32(0), float32(-1), true)
	f.Add(uint32(1<<31), uint32(7), float32(3.25e-9), false)
	f.Fuzz(func(t *testing.T, src, dst uint32, w float32, weighted bool) {
		e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
		if weighted {
			e.Weight = w
		}
		buf := EncodeEdge(nil, e, weighted)
		rec := EdgeBytes
		if weighted {
			rec += WeightBytes
		}
		if len(buf) != rec {
			t.Fatalf("encoded %d bytes, want %d", len(buf), rec)
		}
		got := DecodeEdge(buf, weighted)
		// NaN weights don't compare equal; compare the bit patterns instead.
		if got.Src != e.Src || got.Dst != e.Dst || floatBits(got.Weight) != floatBits(e.Weight) {
			t.Fatalf("round trip %+v -> %+v", e, got)
		}
	})
}

// FuzzDeltaBlockRoundTrip builds an edge slice from fuzzed bytes, encodes it
// with the delta block codec, and checks the decode reproduces it exactly —
// including unsorted and duplicate edges, which the codec must tolerate.
func FuzzDeltaBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(100), uint32(300), true)
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint32(1<<20), uint32(0), false)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 9, 9, 9, 9}, uint32(0), uint32(7), true)
	f.Fuzz(func(t *testing.T, raw []byte, srcBase, dstBase uint32, weighted bool) {
		// Interpret the fuzz bytes as edge records relative to the bases so
		// most inputs land near the bases (realistic cells) while high bytes
		// still exercise far-out vertices.
		var edges []Edge
		for off := 0; off+8 <= len(raw) && len(edges) < 1<<12; off += 8 {
			s := uint64(srcBase) + uint64(raw[off]) | uint64(raw[off+1])<<8
			d := uint64(dstBase) + uint64(raw[off+2]) | uint64(raw[off+3])<<16
			if s > uint64(^uint32(0)) || d > uint64(^uint32(0)) {
				continue
			}
			e := Edge{Src: VertexID(s), Dst: VertexID(d)}
			if weighted {
				e.Weight = bitsToFloat(uint32(raw[off+4]) | uint32(raw[off+5])<<8 | uint32(raw[off+6])<<16 | uint32(raw[off+7])<<24)
			}
			edges = append(edges, e)
		}
		// Encoding requires every src >= srcBase; clamp the base down.
		base := VertexID(srcBase)
		for _, e := range edges {
			if e.Src < base {
				base = e.Src
			}
		}
		data := EncodeDeltaBlock(nil, edges, base, VertexID(dstBase), weighted)
		got, err := AppendDeltaBlock(nil, data, base, VertexID(dstBase), weighted)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(got) != len(edges) {
			t.Fatalf("decoded %d edges, want %d", len(got), len(edges))
		}
		for i := range edges {
			if got[i].Src != edges[i].Src || got[i].Dst != edges[i].Dst ||
				floatBits(got[i].Weight) != floatBits(edges[i].Weight) {
				t.Fatalf("edge %d: %+v != %+v", i, got[i], edges[i])
			}
		}
	})
}

// FuzzDeltaBlockDecode feeds arbitrary bytes to the delta block decoder: it
// may reject them, but must never panic, hang, or hold more capacity than a
// validated header count — and must agree with the per-run oracle on the
// verdict and on every edge, as a block and as a bare run section.
func FuzzDeltaBlockDecode(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), false)
	f.Add(EncodeDeltaBlock(nil, []Edge{{Src: 5, Dst: 9}, {Src: 5, Dst: 11}}, 0, 0, false), uint32(0), uint32(0), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(0), uint32(0), true)
	f.Add(EncodeDeltaBlock(nil, []Edge{{Src: 9, Dst: 1 << 20, Weight: 1}, {Src: 9, Dst: 3, Weight: 2}}, 4, 1<<21, true), uint32(4), uint32(1<<21), true)
	for _, c := range readerBoundaries() {
		f.Add(c.data, uint32(0), uint32(0), c.weighted)
	}
	f.Fuzz(func(t *testing.T, data []byte, srcBase, dstBase uint32, weighted bool) {
		prefix := []Edge{{Src: 1, Dst: 2, Weight: 3}}
		checkBlockAgainstOracle(t, prefix, data, VertexID(srcBase), VertexID(dstBase), weighted)
		checkRunsAgainstOracle(t, prefix, data, VertexID(srcBase), VertexID(dstBase))
		edges, err := AppendDeltaBlock(nil, data, VertexID(srcBase), VertexID(dstBase), weighted)
		if err != nil {
			return
		}
		// Accepted input must re-encode to a decodable block of equal length.
		again := EncodeDeltaBlock(nil, edges, minSrc(edges, VertexID(srcBase)), VertexID(dstBase), weighted)
		got, err := AppendDeltaBlock(nil, again, minSrc(edges, VertexID(srcBase)), VertexID(dstBase), weighted)
		if err != nil {
			t.Fatalf("re-encode not decodable: %v", err)
		}
		if len(got) != len(edges) {
			t.Fatalf("re-encode edge count %d, want %d", len(got), len(edges))
		}
	})
}

func minSrc(edges []Edge, base VertexID) VertexID {
	for _, e := range edges {
		if e.Src < base {
			base = e.Src
		}
	}
	return base
}

// FuzzRunView feeds arbitrary bytes to the run-view scan: it may decline them
// — that is a fallback to the full decoder — but must never panic or hold a
// directory larger than the payload pays for, and a view it builds must agree
// with AppendDeltaBlock on the verdict and, filtered by pick's choice of its
// sources, on every edge.
func FuzzRunView(f *testing.F) {
	sorted := EncodeDeltaBlock(nil, []Edge{{Src: 5, Dst: 9}, {Src: 5, Dst: 11}, {Src: 70, Dst: 2}, {Src: 200, Dst: 1 << 20}}, 0, 0, false)
	f.Add([]byte{}, uint32(0), uint32(0), false, uint64(0))
	f.Add(sorted, uint32(0), uint32(0), false, uint64(0b101))
	f.Add(sorted[:len(sorted)-1], uint32(0), uint32(0), false, ^uint64(0))
	f.Add(EncodeDeltaBlock(nil, []Edge{{Src: 9, Dst: 1}, {Src: 4, Dst: 2}}, 0, 0, false), uint32(0), uint32(0), false, ^uint64(0))
	f.Add(EncodeDeltaBlock(nil, []Edge{{Src: 4, Dst: 1 << 20, Weight: 1}, {Src: 9, Dst: 3, Weight: 2}}, 4, 1<<21, true), uint32(4), uint32(1<<21), true, uint64(2))
	f.Add(sorted, uint32(0), uint32(0), false, uint64(1<<8|0b1111)) // swaps the first run's source under the kept directory
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, ^uint32(0), uint32(0), true, uint64(1))
	f.Add([]byte{1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0}, uint32(0), uint32(0), false, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, srcBase, dstBase uint32, weighted bool, pick uint64) {
		var v RunView
		if !v.Scan(data, VertexID(srcBase), VertexID(dstBase), weighted) {
			checkViewAgainstBlock(t, &v, data, VertexID(srcBase), VertexID(dstBase), weighted)
			return
		}
		var chosen []VertexID
		for k, r := range v.runs[:len(v.runs)-1] {
			if pick>>(k%64)&1 != 0 {
				chosen = append(chosen, r.Src)
			}
		}
		// The directory under a payload one byte off from the one it was
		// scanned from — which the caller's checksum rules out, so only this
		// much is asked: declined, an error, or runs that begin and end with a
		// source asked for, without a panic or a read outside the payload.
		swapped := slices.Clone(data)
		swapped[pick>>8%uint64(len(data))] ^= byte(pick) | 1
		var w RunView
		if w.Attach(v.Dir(), swapped) && len(chosen) > 0 {
			withFilter(chosen, func(filter []uint64) {
				if got, _ := w.AppendActive(nil, filter); len(got) > 0 && len(filtered([]Edge{got[0], got[len(got)-1]}, filter)) != 2 {
					t.Fatalf("swapped payload under a kept directory: edges of sources %d..%d, neither asked for", got[0].Src, got[len(got)-1].Src)
				}
			})
		}
		checkViewAgainstBlock(t, &v, data, VertexID(srcBase), VertexID(dstBase), weighted, chosen, []VertexID{VertexID(srcBase)})
	})
}

// attachSeeds returns two delta blocks of one shape — edge count, run section
// length, no weight column — that differ inside the first run's span: a holds
// one run of source 5 there, b three runs, of sources 5, 6 and 5, so a's
// directory attaches to b and its first entry's span begins and ends with the
// source it names.
func attachSeeds() (a, b []byte) {
	tail := EncodeDeltaRun(nil, []Edge{{Src: 70, Dst: 4}}, 0, 0)
	a = EncodeDeltaRun(binary.AppendUvarint(nil, 4), []Edge{{Src: 5, Dst: 100}, {Src: 5, Dst: 200}, {Src: 5, Dst: 10200}}, 0, 0)
	b = binary.AppendUvarint(nil, 4)
	for _, s := range []VertexID{5, 6, 5} {
		b = EncodeDeltaRun(b, []Edge{{Src: s, Dst: 1}}, 0, 0)
	}
	return append(a, tail...), append(b, tail...)
}

// attachZeroLength returns two delta blocks of one shape whose first spans
// differ: a holds one run of source 5, three edges; z the same run in fewer
// bytes, then a zero-length run of source 5.
func attachZeroLength() (a, z []byte) {
	tail := EncodeDeltaRun(nil, []Edge{{Src: 70, Dst: 4}}, 0, 0)
	a = EncodeDeltaRun(binary.AppendUvarint(nil, 4), []Edge{{Src: 5, Dst: 128}, {Src: 5, Dst: 256}, {Src: 5, Dst: 257}}, 0, 0)
	z = EncodeDeltaRun(binary.AppendUvarint(nil, 4), []Edge{{Src: 5, Dst: 1}, {Src: 5, Dst: 2}, {Src: 5, Dst: 3}}, 0, 0)
	z = append(z, 5, 0)
	return append(a, tail...), append(z, tail...)
}

// FuzzRunViewAttach holds a kept directory to the bytes it is attached to, as
// the engine re-attaches one on every narrow async step and sparse pass: a view
// scans payload a, a second view attaches a's directory to b and decodes the
// sources of a fuzzed filter (bit s of bits, little-endian). Whatever b holds,
// that must not panic and must not return an edge whose source is outside the
// filter; when b is a, it must return exactly the edges of a full decode of a
// that the filter keeps.
func FuzzRunViewAttach(f *testing.F) {
	a, b := attachSeeds()
	f.Add(a, a, uint32(0), uint32(0), false, []byte{1 << 5})
	f.Add(a, b, uint32(0), uint32(0), false, []byte{1 << 5})
	f.Add(a, b, uint32(0), uint32(0), false, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	w := EncodeDeltaBlock(nil, []Edge{{Src: 4, Dst: 1 << 20, Weight: 1}, {Src: 9, Dst: 3, Weight: 2}}, 4, 1<<21, true)
	f.Add(w, w, uint32(4), uint32(1<<21), true, []byte{1 << 1, 1 << 1})
	f.Add(w, append(slices.Clone(w[:len(w)-1]), 0x40), uint32(4), uint32(1<<21), true, []byte{0xff, 0xff})
	// The entry's run and then a zero-length run of its source, in a span of
	// the same shape: the one run decoder once accepted it edge for edge,
	// appendRun refuses it, since its gaps end before the next entry.
	a, z := attachZeroLength()
	f.Add(a, z, uint32(0), uint32(0), false, []byte{1 << 5})
	f.Fuzz(func(t *testing.T, a, b []byte, srcBase, dstBase uint32, weighted bool, bits []byte) {
		var v RunView
		if !v.Scan(a, VertexID(srcBase), VertexID(dstBase), weighted) {
			return
		}
		filter := make([]uint64, (len(bits)+7)/8)
		for k, c := range bits {
			filter[k/8] |= uint64(c) << (8 * (k % 8))
		}
		var w RunView
		if !w.Attach(v.Dir(), b) {
			return
		}
		got, err := w.AppendActive(nil, filter)
		if kept := filtered(got, filter); len(kept) != len(got) {
			t.Fatalf("a's directory over b: %d edges, %d of them of a source outside the filter", len(got), len(got)-len(kept))
		}
		if !bytes.Equal(a, b) {
			return
		}
		full, fullErr := AppendDeltaBlock(nil, a, VertexID(srcBase), VertexID(dstBase), weighted)
		if fullErr != nil {
			return
		}
		if want := filtered(full, filter); err != nil || !sameEdgeBits(got, want) {
			t.Fatalf("a's directory over a: %d edges, %v; the filtered full decode %d", len(got), err, len(want))
		}
	})
}

// hostileHeader is a 24-byte GSDG file: 10 vertices and an edge count of 2³⁶
// with no edge behind it. A reader that sizes its output from the header asks
// the runtime for 824 GB.
func hostileHeader(flags uint32) []byte {
	hdr := append([]byte("GSDG"), make([]byte, 20)...)
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], 10)
	binary.LittleEndian.PutUint64(hdr[16:], 1<<36)
	return hdr
}

// drainBinary reads every edge of a GSDG file through the stream.
func drainBinary(data []byte) (*Graph, error) {
	st, err := NewBinaryStream(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	g := &Graph{NumVertices: st.NumVertices, Weighted: st.Weighted}
	for {
		e, ok, err := st.Next()
		if err != nil || !ok {
			return g, err
		}
		g.Edges = append(g.Edges, e)
	}
}

// TestReadBinaryHostileHeader: a header that promises more edges than the
// file holds is an error from both readers — raw and delta-flagged — and
// costs no allocation on the header's say-so; counts no machine can hold are
// refused before any edge is read.
func TestReadBinaryHostileHeader(t *testing.T) {
	for _, flags := range []uint32{0, 2} {
		data := hostileHeader(flags)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Fatalf("flags %d: ReadBinary accepted 2^36 edges out of a 24-byte file", flags)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("flags %d: ReadBinary allocated %d bytes on the header's word", flags, grew)
		}
		if _, err := drainBinary(data); err == nil {
			t.Fatalf("flags %d: stream drained 2^36 edges out of a 24-byte file", flags)
		}
		binary.LittleEndian.PutUint64(data[16:], 1<<41)
		if _, err := NewBinaryStream(bytes.NewReader(data)); err == nil {
			t.Fatalf("flags %d: stream accepted an edge count of 2^41", flags)
		}
		binary.LittleEndian.PutUint64(data[16:], 0)
		binary.LittleEndian.PutUint64(data[8:], 1<<63)
		if _, err := NewBinaryStream(bytes.NewReader(data)); err == nil {
			t.Fatalf("flags %d: stream accepted a vertex count of 2^63", flags)
		}
	}
}

// FuzzBinaryStream feeds arbitrary bytes to the GSDG interchange reader: it
// may reject them but must never panic or allocate on a header's word, and
// ReadBinary must be exactly a drained stream followed by Graph.Validate —
// same verdict, same edges.
func FuzzBinaryStream(f *testing.F) {
	for _, seed := range []struct {
		weighted bool
		codec    Codec
	}{{false, CodecRaw}, {false, CodecDelta}, {true, CodecRaw}, {true, CodecDelta}} {
		g := &Graph{NumVertices: 300, Weighted: seed.weighted, Edges: []Edge{{Src: 0, Dst: 299}, {Src: 7, Dst: 7}, {Src: 7, Dst: 2}, {Src: 299, Dst: 0}}}
		if seed.weighted {
			for i := range g.Edges {
				g.Edges[i].Weight = float32(i) + 0.5
			}
		}
		var buf bytes.Buffer
		if err := WriteBinaryCodec(&buf, g, seed.codec); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hostileHeader(0))
	f.Add(hostileHeader(3))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := drainBinary(data)
		if err == nil {
			err = want.Validate()
		}
		got, rerr := ReadBinary(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("drained stream: %v; ReadBinary: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if got.NumVertices != want.NumVertices || got.Weighted != want.Weighted || len(got.Edges) != len(want.Edges) {
			t.Fatalf("ReadBinary: %d vertices, weighted %v, %d edges; stream: %d, %v, %d",
				got.NumVertices, got.Weighted, len(got.Edges), want.NumVertices, want.Weighted, len(want.Edges))
		}
		for i, e := range want.Edges {
			if g := got.Edges[i]; g.Src != e.Src || g.Dst != e.Dst || floatBits(g.Weight) != floatBits(e.Weight) {
				t.Fatalf("edge %d: ReadBinary %+v, stream %+v", i, g, e)
			}
		}
	})
}
