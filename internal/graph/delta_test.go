package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The oracle: the per-run decoder every read path used before the fused loop
// (one call per run, one append per edge, weights in a second pass), kept
// verbatim but for a wrap-proof source check. The differential and fuzz tests
// hold decodeDeltaRuns to it edge for edge and error for error.

func oracleDeltaRun(dst []Edge, data []byte, srcBase, dstBase VertexID) ([]Edge, int, error) {
	srcRel, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, 0, fmt.Errorf("bad source varint")
	}
	off := k
	if srcRel > math.MaxUint32-uint64(srcBase) {
		return dst, 0, fmt.Errorf("source overflows uint32")
	}
	src := uint64(srcBase) + srcRel
	runLen, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return dst, 0, fmt.Errorf("bad length varint")
	}
	off += k
	if runLen > uint64(len(data)-off) {
		return dst, 0, fmt.Errorf("length %d exceeds %d remaining bytes", runLen, len(data)-off)
	}
	prev := int64(dstBase)
	for i := uint64(0); i < runLen; i++ {
		gap, k := binary.Varint(data[off:])
		if k <= 0 {
			return dst, 0, fmt.Errorf("bad gap varint at edge %d", i)
		}
		off += k
		prev += gap
		if prev < 0 || prev > math.MaxUint32 {
			return dst, 0, fmt.Errorf("destination %d out of uint32 range", prev)
		}
		dst = append(dst, Edge{Src: VertexID(src), Dst: VertexID(prev)})
	}
	return dst, off, nil
}

func oracleDeltaRuns(dst []Edge, data []byte, srcBase, dstBase VertexID) ([]Edge, error) {
	for len(data) > 0 {
		var n int
		var err error
		dst, n, err = oracleDeltaRun(dst, data, srcBase, dstBase)
		if err != nil {
			return dst, err
		}
		data = data[n:]
	}
	return dst, nil
}

func oracleDeltaBlock(dst []Edge, data []byte, srcBase, dstBase VertexID, weighted bool) ([]Edge, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return dst, fmt.Errorf("bad count varint")
	}
	if n > uint64(len(data)) {
		return dst, fmt.Errorf("count %d exceeds %d payload bytes", n, len(data))
	}
	weightBytes := 0
	if weighted {
		weightBytes = int(n) * WeightBytes
		if weightBytes > len(data)-k {
			return dst, fmt.Errorf("weight column truncated")
		}
	}
	base := len(dst)
	dst, err := oracleDeltaRuns(dst, data[k:len(data)-weightBytes], srcBase, dstBase)
	if err != nil {
		return dst, err
	}
	if got := len(dst) - base; uint64(got) != n {
		return dst, fmt.Errorf("decoded %d edges, header says %d", got, n)
	}
	if weighted {
		col := data[len(data)-weightBytes:]
		for i := range dst[base:] {
			dst[base+i].Weight = bitsToFloat(binary.LittleEndian.Uint32(col[i*WeightBytes:]))
		}
	}
	return dst, nil
}

func deltaTestEdges(weighted bool) []Edge {
	// A src-sorted cell over intervals src [100,200), dst [300,400) with
	// clustered destinations — the layout the codec is built for.
	rng := rand.New(rand.NewSource(42))
	var edges []Edge
	for v := 100; v < 200; v += 3 {
		deg := rng.Intn(8)
		dst := 300 + rng.Intn(10)
		for k := 0; k < deg; k++ {
			e := Edge{Src: VertexID(v), Dst: VertexID(dst)}
			if weighted {
				e.Weight = rng.Float32()
			}
			edges = append(edges, e)
			dst += 1 + rng.Intn(12)
			if dst >= 400 {
				break
			}
		}
	}
	return edges
}

func TestDeltaBlockRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		edges := deltaTestEdges(weighted)
		data := EncodeDeltaBlock(nil, edges, 100, 300, weighted)
		got, err := AppendDeltaBlock(nil, data, 100, 300, weighted)
		if err != nil {
			t.Fatalf("weighted=%t: %v", weighted, err)
		}
		if len(got) != len(edges) {
			t.Fatalf("weighted=%t: decoded %d edges, want %d", weighted, len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("weighted=%t: edge %d = %+v, want %+v", weighted, i, got[i], edges[i])
			}
		}
	}
}

func TestDeltaBlockEmpty(t *testing.T) {
	data := EncodeDeltaBlock(nil, nil, 0, 0, false)
	got, err := AppendDeltaBlock(nil, data, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d edges from empty block", len(got))
	}
}

func TestDeltaBlockUnsortedStillRoundTrips(t *testing.T) {
	// Correctness must not depend on sort order — only the ratio does.
	edges := []Edge{{Src: 9, Dst: 70}, {Src: 3, Dst: 5}, {Src: 3, Dst: 2}, {Src: 9, Dst: 1}, {Src: 3, Dst: 5}}
	data := EncodeDeltaBlock(nil, edges, 0, 0, false)
	got, err := AppendDeltaBlock(nil, data, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], edges[i])
		}
	}
}

func TestDeltaBlockCompresses(t *testing.T) {
	edges := deltaTestEdges(false)
	data := EncodeDeltaBlock(nil, edges, 100, 300, false)
	raw := len(edges) * EdgeBytes
	if len(data)*2 > raw {
		t.Fatalf("delta %d bytes vs raw %d: want >= 2x reduction on sorted cell", len(data), raw)
	}
}

func TestDeltaRunSelfContained(t *testing.T) {
	// Decoding runs one at a time from arbitrary offsets must agree with the
	// block decode — this property is what per-vertex byte indexes rely on.
	edges := deltaTestEdges(false)
	var buf []byte
	var offs, starts []int
	for start := 0; start < len(edges); {
		end := start + 1
		for end < len(edges) && edges[end].Src == edges[start].Src {
			end++
		}
		offs, starts = append(offs, len(buf)), append(starts, start)
		buf = EncodeDeltaRun(buf, edges[start:end], 100, 300)
		start = end
	}
	offs, starts = append(offs, len(buf)), append(starts, len(edges))
	// Decode the runs in reverse order, each from exactly its byte range.
	for k := len(offs) - 2; k >= 0; k-- {
		got, err := AppendDeltaRuns(nil, buf[offs[k]:offs[k+1]], 100, 300)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if !slices.Equal(got, edges[starts[k]:starts[k+1]]) {
			t.Fatalf("run %d decoded %v, want %v", k, got, edges[starts[k]:starts[k+1]])
		}
	}
}

func TestDeltaBlockTruncated(t *testing.T) {
	edges := deltaTestEdges(true)
	data := EncodeDeltaBlock(nil, edges, 100, 300, true)
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, err := AppendDeltaBlock(nil, data[:cut], 100, 300, true); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(data))
		}
	}
}

func TestDeltaBlockRejectsHostileCount(t *testing.T) {
	// A tiny payload claiming billions of edges must fail fast, not allocate.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}
	if _, err := AppendDeltaBlock(nil, hostile, 0, 0, false); err == nil {
		t.Fatal("hostile edge count accepted")
	}
}

func TestBinaryCodecDeltaRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := &Graph{NumVertices: 500, Weighted: weighted, Edges: deltaTestEdges(weighted)}
		var raw, del bytes.Buffer
		if err := WriteBinaryCodec(&raw, g, CodecRaw); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinaryCodec(&del, g, CodecDelta); err != nil {
			t.Fatal(err)
		}
		if !weighted && del.Len()*2 > raw.Len() {
			t.Fatalf("delta interchange %d bytes vs raw %d: want >= 2x on sorted graph", del.Len(), raw.Len())
		}
		got, err := ReadBinary(bytes.NewReader(del.Bytes()))
		if err != nil {
			t.Fatalf("weighted=%t: %v", weighted, err)
		}
		if got.NumVertices != g.NumVertices || got.Weighted != g.Weighted || len(got.Edges) != len(g.Edges) {
			t.Fatalf("weighted=%t: header mismatch", weighted)
		}
		for i := range g.Edges {
			if got.Edges[i] != g.Edges[i] {
				t.Fatalf("weighted=%t: edge %d = %+v, want %+v", weighted, i, got.Edges[i], g.Edges[i])
			}
		}
		// The incremental stream reader must agree with ReadBinary.
		st, err := NewBinaryStream(bytes.NewReader(del.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			e, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(g.Edges) {
					t.Fatalf("stream ended at %d, want %d", i, len(g.Edges))
				}
				break
			}
			if e != g.Edges[i] {
				t.Fatalf("stream edge %d = %+v, want %+v", i, e, g.Edges[i])
			}
		}
	}
}

func TestParseCodec(t *testing.T) {
	cases := []struct {
		in   string
		want Codec
		ok   bool
	}{
		{"", CodecRaw, true},
		{"raw", CodecRaw, true},
		{"delta", CodecDelta, true},
		{"gzip", CodecRaw, false},
	}
	for _, c := range cases {
		got, err := ParseCodec(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParseCodec(%q) = %v, %v", c.in, got, err)
		}
	}
	if CodecDelta.String() != "delta" || CodecRaw.String() != "raw" {
		t.Fatal("codec String() mismatch")
	}
}
