package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// genDeltaCell draws a cell for the differential tests: runs of 1…maxRun
// edges whose destination gaps need 1…gapBytes varint bytes. Sorted cells
// have ascending sources and destinations, like the partitioner's; unsorted
// ones visit sources in any order and step destinations both ways.
func genDeltaCell(rng *rand.Rand, runs, maxRun, gapBytes int, sorted, weighted bool, srcBase, dstBase VertexID) []Edge {
	srcs := make([]VertexID, runs)
	for k := range srcs {
		srcs[k] = srcBase + VertexID(rng.Int63n(min(int64(math.MaxUint32-srcBase)+1, 1<<14)))
	}
	if sorted {
		slices.Sort(srcs)
	}
	var edges []Edge
	for _, src := range srcs {
		dst := int64(dstBase)
		for k, runLen := 0, 1+rng.Intn(maxRun); k < runLen; k++ {
			// A zigzag gap of magnitude < 2^(7w-1) takes w varint bytes.
			gap := rng.Int63n(1 << (7*(1+rng.Intn(gapBytes)) - 1))
			if !sorted && rng.Intn(2) == 0 {
				gap = -gap
			}
			if dst+gap < 0 || dst+gap > math.MaxUint32 {
				gap = 0
			}
			dst += gap
			e := Edge{Src: src, Dst: VertexID(dst)}
			if weighted {
				e.Weight = math.Float32frombits(rng.Uint32()) // NaNs included: compare by bits
			}
			edges = append(edges, e)
		}
	}
	return edges
}

func sameEdgeBits(a, b []Edge) bool {
	return slices.EqualFunc(a, b, func(x, y Edge) bool {
		return x.Src == y.Src && x.Dst == y.Dst && floatBits(x.Weight) == floatBits(y.Weight)
	})
}

// checkBlockAgainstOracle decodes data with both decoders behind a copy of
// prefix and requires the same verdict, the same edges by bits, an untouched
// prefix, a dst back at its original length on error, and a capacity no
// larger than the prefix plus a header count the format has validated.
func checkBlockAgainstOracle(t testing.TB, prefix []Edge, data []byte, srcBase, dstBase VertexID, weighted bool) {
	t.Helper()
	want, wantErr := oracleDeltaBlock(slices.Clone(prefix), data, srcBase, dstBase, weighted)
	got, err := AppendDeltaBlock(slices.Clip(slices.Clone(prefix)), data, srcBase, dstBase, weighted)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("fused decoder: %v, oracle: %v", err, wantErr)
	}
	bound := len(prefix)
	if n, k := binary.Uvarint(data); k > 0 && n <= uint64(len(data)) && (!weighted || int(n)*WeightBytes <= len(data)-k) {
		bound += int(n)
	}
	if cap(got) > bound {
		t.Fatalf("decoder holds capacity %d, want <= %d (prefix %d, %d payload bytes)", cap(got), bound, len(prefix), len(data))
	}
	if err != nil {
		if !sameEdgeBits(got, prefix) {
			t.Fatalf("failed decode returned %d edges, want the %d-edge prefix back", len(got), len(prefix))
		}
		return
	}
	if !sameEdgeBits(got, want) {
		t.Fatalf("fused decoder and oracle disagree over %d / %d edges", len(got), len(want))
	}
}

// checkRunsAgainstOracle is checkBlockAgainstOracle for a bare run section.
func checkRunsAgainstOracle(t testing.TB, prefix []Edge, body []byte, srcBase, dstBase VertexID) {
	t.Helper()
	want, wantErr := oracleDeltaRuns(slices.Clone(prefix), body, srcBase, dstBase)
	got, err := AppendDeltaRuns(slices.Clone(prefix), body, srcBase, dstBase)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("fused decoder: %v, oracle: %v", err, wantErr)
	}
	if err != nil {
		want = prefix
	}
	if !sameEdgeBits(got, want) {
		t.Fatalf("fused decoder returned %d edges, want %d", len(got), len(want))
	}
}

// runSection returns the run section of an n-edge block and where it starts.
func runSection(data []byte, n int, weighted bool) (int, []byte) {
	_, k := binary.Uvarint(data)
	if weighted {
		return k, data[k : len(data)-n*WeightBytes]
	}
	return k, data[k:]
}

func TestDeltaDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	prefix := []Edge{{Src: 7, Dst: 9, Weight: 2.5}, {Src: math.MaxUint32, Dst: 0, Weight: -1}}
	for _, bases := range [][2]VertexID{{0, 0}, {100, 300}, {math.MaxUint32 - 4096, math.MaxUint32 - 64}, {math.MaxUint32, math.MaxUint32}} {
		for _, maxRun := range []int{1, 8, 4096} {
			for gapBytes := 1; gapBytes <= 5; gapBytes++ {
				for _, sorted := range []bool{true, false} {
					for _, weighted := range []bool{false, true} {
						edges := genDeltaCell(rng, 1+rng.Intn(24), maxRun, gapBytes, sorted, weighted, bases[0], bases[1])
						data := EncodeDeltaBlock(nil, edges, bases[0], bases[1], weighted)
						got, err := AppendDeltaBlock(nil, data, bases[0], bases[1], weighted)
						if err != nil || !sameEdgeBits(got, edges) {
							t.Fatalf("bases %v maxRun %d gapBytes %d sorted %t weighted %t: round trip of %d edges: %d back, %v",
								bases, maxRun, gapBytes, sorted, weighted, len(edges), len(got), err)
						}
						checkBlockAgainstOracle(t, nil, data, bases[0], bases[1], weighted)
						checkBlockAgainstOracle(t, prefix, data, bases[0], bases[1], weighted)
						_, body := runSection(data, len(edges), weighted)
						checkRunsAgainstOracle(t, prefix, body, bases[0], bases[1])
					}
				}
			}
		}
	}
}

// TestDeltaDecodeMalformedMatchesOracle cuts a block at every offset and
// damages every byte of it, three ways each: whatever the oracle makes of the
// result — an error, or other edges — the fused decoder must make too.
func TestDeltaDecodeMalformedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	prefix := []Edge{{Src: 1, Dst: 2, Weight: 3}}
	for _, weighted := range []bool{false, true} {
		for _, sorted := range []bool{true, false} {
			edges := genDeltaCell(rng, 12, 6, 4, sorted, weighted, 100, 300)
			data := EncodeDeltaBlock(nil, edges, 100, 300, weighted)
			k, body := runSection(data, len(edges), weighted)
			for cut := 0; cut < len(data); cut++ {
				checkBlockAgainstOracle(t, prefix, data[:cut], 100, 300, weighted)
			}
			for cut := 0; cut < len(body); cut++ {
				checkRunsAgainstOracle(t, prefix, body[:cut], 100, 300)
			}
			for at := range data {
				for _, flip := range []byte{0x01, 0x80, 0xff} {
					bad := slices.Clone(data)
					bad[at] ^= flip
					checkBlockAgainstOracle(t, prefix, bad, 100, 300, weighted)
					// Near the top of the ID space the same damage also
					// overflows sources and destinations.
					checkBlockAgainstOracle(t, nil, bad, math.MaxUint32-200, math.MaxUint32-400, weighted)
					if at < len(body) {
						checkRunsAgainstOracle(t, nil, bad[k:k+len(body)], 100, 300)
					}
				}
			}
		}
	}
}

// TestDecodeAllocatesOnce pins the decode contract's cost: a decoder handed
// no dst allocates its output exactly once, one handed an adequate dst not at
// all — whatever the edge count.
func TestDecodeAllocatesOnce(t *testing.T) {
	// A collection started by a large allocation does some allocating of its
	// own; keep it out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(3))
	for _, weighted := range []bool{false, true} {
		edges := genDeltaCell(rng, 2000, 16, 2, true, weighted, 0, 0)
		delta := EncodeDeltaBlock(nil, edges, 0, 0, weighted)
		var raw []byte
		for _, e := range edges {
			raw = EncodeEdge(raw, e, weighted)
		}
		dst := make([]Edge, 0, len(edges))
		for _, c := range []struct {
			name   string
			dst    []Edge
			decode func(dst []Edge) ([]Edge, error)
			want   float64
		}{
			{"AppendDeltaBlock(nil)", nil, func(d []Edge) ([]Edge, error) { return AppendDeltaBlock(d, delta, 0, 0, weighted) }, 1},
			{"AppendDeltaBlock(dst)", dst, func(d []Edge) ([]Edge, error) { return AppendDeltaBlock(d, delta, 0, 0, weighted) }, 0},
			{"AppendEdges(nil)", nil, func(d []Edge) ([]Edge, error) { return AppendEdges(d, raw, weighted) }, 1},
			{"AppendEdges(dst)", dst, func(d []Edge) ([]Edge, error) { return AppendEdges(d, raw, weighted) }, 0},
		} {
			allocs := testing.AllocsPerRun(10, func() {
				if got, err := c.decode(c.dst); err != nil || len(got) != len(edges) {
					t.Fatalf("%s: %d edges, %v", c.name, len(got), err)
				}
			})
			if allocs != c.want {
				t.Errorf("%s weighted=%t: %v allocations per decode of %d edges, want %v", c.name, weighted, allocs, len(edges), c.want)
			}
		}
	}
}

// TestDeltaBlockRejectsOutOfRange hand-builds the blocks damage rarely
// produces: each must fail in both decoders.
func TestDeltaBlockRejectsOutOfRange(t *testing.T) {
	block := func(n, srcRel, runLen uint64, gaps ...int64) []byte {
		b := binary.AppendUvarint(nil, n)
		b = binary.AppendUvarint(b, srcRel)
		b = binary.AppendUvarint(b, runLen)
		for _, g := range gaps {
			b = binary.AppendVarint(b, g)
		}
		return b
	}
	for _, c := range []struct {
		name             string
		srcBase, dstBase VertexID
		data             []byte
	}{
		{"source past uint32", math.MaxUint32, 0, block(1, 1, 1, 0)},
		{"source wraps uint64", 5, 0, block(1, math.MaxUint64-4, 1, 0)},
		{"destination past uint32", 0, math.MaxUint32, block(1, 0, 1, 1)},
		{"destination below zero", 0, 0, block(1, 0, 1, -1)},
		{"gap wraps int64", 0, 1, block(1, 0, 1, math.MaxInt64)},
		{"run longer than the header count", 0, 0, block(1, 0, 2, 0, 0)},
		{"runs shorter than the header count", 0, 0, block(3, 0, 2, 0, 0)},
		{"run longer than the bytes left", 0, 0, block(4, 0, 4, 0)},
	} {
		if _, err := AppendDeltaBlock(nil, c.data, c.srcBase, c.dstBase, false); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		checkBlockAgainstOracle(t, nil, c.data, c.srcBase, c.dstBase, false)
	}
	// A bare run section carries no count: a run is checked against the bytes
	// left before it sizes anything.
	if out, err := AppendDeltaRuns(nil, []byte{0x00, 0x03, 0x00}, 0, 0); err == nil || cap(out) != 0 {
		t.Errorf("3-edge run over 1 byte: capacity %d, error %v", cap(out), err)
	}
}

// readerBoundary is a block whose one interesting varint sits where the
// decoder's varint reader changes its mind: body is its run section.
type readerBoundary struct {
	name     string
	data     []byte
	body     []byte
	weighted bool
	zeroRun  bool // the block holds a run of length 0, which a view declines
}

// readerBoundaries builds, for a gap, a source header and a length header,
// a block with each of these varints there: one byte, two bytes, the
// non-canonical 0x80 0x00, a second byte that continues (three bytes), ten
// bytes holding the largest value, eleven bytes (overlong) — none of them at
// the end of the run section — and each one's first byte as the section's
// last byte. The weight column's bytes have their top bit clear, so a reader
// that looked past the run section would find a varint's end there.
func readerBoundaries() []readerBoundary {
	varints := []struct {
		name string
		v    []byte
	}{
		{"one byte", []byte{0x06}},
		{"two bytes", []byte{0x86, 0x01}},
		{"non-canonical 0x80 0x00", []byte{0x80, 0x00}},
		{"second byte continues", []byte{0x80, 0x80, 0x01}},
		{"ten bytes", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
	}
	var out []readerBoundary
	for _, at := range []string{"gap", "source", "length"} {
		for _, last := range []bool{false, true} {
			for _, c := range varints {
				v, name := c.v, at+"/"+c.name
				if last {
					v, name = v[:1], at+"/last byte/"+c.name
				}
				// Runs of source 1, or v, whose other gaps are +1 (0x02); a
				// run length v is followed by v gaps, up to 1<<15, or by one.
				var body []byte
				zeroRun := false
				switch {
				case at == "gap" && !last:
					body = append(append([]byte{0x01, 0x02}, v...), 0x02)
				case at == "gap":
					body = append([]byte{0x01, 0x01}, v...)
				case at == "source" && !last:
					body = append(slices.Clone(v), 0x01, 0x02)
				case at == "source":
					body = append([]byte{0x01, 0x01, 0x02}, v...)
				case !last:
					body = append([]byte{0x01}, v...)
					gaps := uint64(1)
					if n, k := binary.Uvarint(v); k > 0 && n <= 1<<15 {
						gaps, zeroRun = n, n == 0
					}
					for ; gaps > 0; gaps-- {
						body = append(body, 0x02)
					}
				default:
					body = append([]byte{0x01, 0x01, 0x02, 0x07}, v...)
				}
				n := 1
				if edges, err := oracleDeltaRuns(nil, body, 0, 0); err == nil {
					n = len(edges)
				}
				for _, weighted := range []bool{false, true} {
					data := binary.AppendUvarint(nil, uint64(n))
					k := len(data)
					data = append(data, body...)
					for w := 0; weighted && w < n; w++ {
						data = append(data, 0x01, 0x02, 0x03, 0x04)
					}
					out = append(out, readerBoundary{name, data, data[k : k+len(body)], weighted, zeroRun})
				}
			}
		}
	}
	return out
}

// TestDeltaVarintReaderBoundaries holds the decoder's varint reader to the
// oracle on every branch it takes — a one- or two-byte varint read whole, a
// longer one, and one at the end of the run section, each handed to
// binary.Uvarint — as a gap, a source and a run length, in a block and in a
// bare run section; and a view under a cell to the full decoder's verdict.
func TestDeltaVarintReaderBoundaries(t *testing.T) {
	prefix := []Edge{{Src: 7, Dst: 9, Weight: 2.5}}
	cell := Cell{SrcHi: 1 << 32, DstHi: 1 << 32}
	accepted := map[bool]int{}
	for _, c := range readerBoundaries() {
		name := fmt.Sprintf("%s weighted=%t", c.name, c.weighted)
		checkBlockAgainstOracle(t, prefix, c.data, 0, 0, c.weighted)
		checkRunsAgainstOracle(t, prefix, c.body, 0, 0)
		full, fullErr := AppendDeltaCell(nil, c.data, cell, c.weighted)
		accepted[fullErr == nil]++
		var v RunView
		if !v.ScanCell(c.data, cell, c.weighted) {
			if fullErr == nil && !c.zeroRun {
				t.Errorf("%s: the view declines a block the decoder accepts", name)
			}
			continue
		}
		var every []VertexID
		for _, r := range v.runs[:len(v.runs)-1] {
			every = append(every, r.Src)
		}
		withFilter(every, func(filter []uint64) {
			got, err := v.AppendActive(nil, filter)
			if (err == nil) != (fullErr == nil) || (err == nil && !sameEdgeBits(got, full)) {
				t.Errorf("%s: view decodes %d edges, %v; the decoder %d, %v", name, len(got), err, len(full), fullErr)
			}
		})
	}
	if accepted[true] == 0 || accepted[false] == 0 {
		t.Fatalf("%d blocks accepted, %d refused: the cases no longer reach both verdicts", accepted[true], accepted[false])
	}
}
