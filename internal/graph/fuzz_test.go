package graph

import (
	"bytes"
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
