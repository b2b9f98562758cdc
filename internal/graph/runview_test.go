package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// A filter is indexed by absolute vertex ID, as the engine's frontier bitmaps
// are, so one that reaches the top of the ID space spans 512 MiB. The tests
// share a single such slice — allocated on first need, never written outside
// the few words a case sets and clears again, so almost none of it is ever
// resident — and use small private slices for everything below wideFrom.
const wideFrom = 1 << 22

var (
	wideOnce   sync.Once
	wideFilter []uint64
	wideMu     sync.Mutex
)

// withFilter calls f with a filter holding exactly srcs.
func withFilter(srcs []VertexID, f func(filter []uint64)) {
	top := VertexID(0)
	for _, s := range srcs {
		top = max(top, s)
	}
	var filter []uint64
	if top < wideFrom {
		filter = make([]uint64, top>>6+1)
	} else {
		wideOnce.Do(func() { wideFilter = make([]uint64, 1<<26) })
		wideMu.Lock()
		defer wideMu.Unlock()
		filter = wideFilter
	}
	fill := func(set bool) {
		for _, s := range srcs {
			filter[s>>6] &^= 1 << (s & 63)
			if set {
				filter[s>>6] |= 1 << (s & 63)
			}
		}
	}
	fill(true)
	defer fill(false)
	f(filter)
}

// viewLen is the edge count a view's directory records.
func viewLen(v *RunView) int {
	if len(v.runs) == 0 {
		return 0
	}
	return int(v.runs[len(v.runs)-1].Rec)
}

// filtered is the reference for AppendActive: the edges of a full decode whose
// source's bit is set in filter, the way every scatter kernel tests it.
func filtered(edges []Edge, filter []uint64) []Edge {
	var out []Edge
	for _, e := range edges {
		if w := int(e.Src >> 6); w < len(filter) && filter[w]&(1<<(e.Src&63)) != 0 {
			out = append(out, e)
		}
	}
	return out
}

// checkViewAgainstBlock holds a run view of data to the full decoder. A view
// Scan declines is a fallback to that decoder and always allowed; one it
// builds must give, under a filter of all its sources, the full decoder's
// verdict and edges, and under every other filter (a list of sources each)
// either an error the full decoder gives too or exactly the filtered edges —
// behind an untouched prefix either way. A second view that adopts the first
// one's directory over the same bytes is held to all of it again, and v — which
// is then made to scan something else — must leave that directory as it was.
func checkViewAgainstBlock(t testing.TB, v *RunView, data []byte, srcBase, dstBase VertexID, weighted bool, filters ...[]VertexID) (viewed bool) {
	t.Helper()
	full, fullErr := AppendDeltaBlock(nil, data, srcBase, dstBase, weighted)
	if !v.Scan(data, srcBase, dstBase, weighted) {
		if got, err := v.AppendActive(nil, []uint64{^uint64(0)}); viewLen(v) != 0 || err != nil || len(got) != 0 {
			t.Fatalf("declined view holds %d edges, decodes %d, %v", viewLen(v), len(got), err)
		}
		return false
	}
	// A run costs the payload at least three bytes (two header varints and a
	// gap), so no count the scan had not checked sized the directory.
	if len(v.runs) > len(data)/3+1 {
		t.Fatalf("directory of %d spans over %d payload bytes", len(v.runs), len(data))
	}
	if !slices.IsSortedFunc(v.runs[:len(v.runs)-1], func(a, b runSpan) int {
		if a.Src < b.Src {
			return -1
		}
		return 1 // equal sources are out of order too
	}) {
		t.Fatalf("directory sources do not strictly ascend")
	}
	dir := v.Dir()
	kept := slices.Clone(dir.runs)
	var adopted RunView
	if dir.Bytes() != int64(12*len(v.runs)) || !adopted.Attach(dir, data) {
		t.Fatalf("a directory of %d bytes for %d spans does not attach to the bytes it was scanned from", dir.Bytes(), len(v.runs))
	}
	defer func() {
		// v adopts the directory, as a pooled view would have, and goes on to
		// another block: the kept directory is not its scratch memory.
		other := EncodeDeltaBlock(nil, []Edge{{Src: srcBase, Dst: dstBase}, {Src: srcBase, Dst: dstBase}}, srcBase, dstBase, weighted)
		if !v.Attach(dir, data) || !v.Scan(other, srcBase, dstBase, weighted) || !slices.Equal(dir.runs, kept) {
			t.Fatalf("a view that adopted a directory and scanned another block changed the directory")
		}
	}()
	prefix := []Edge{{Src: 3, Dst: 4, Weight: 5}}
	check := func(filter []uint64, whole bool) {
		got, err := v.AppendActive(slices.Clone(prefix), filter)
		if again, againErr := adopted.AppendActive(slices.Clone(prefix), filter); (err == nil) != (againErr == nil) || !sameEdgeBits(again, got) {
			t.Fatalf("adopted directory gives %d edges, %v; the fresh scan %d, %v", len(again), againErr, len(got), err)
		}
		switch {
		case err != nil && fullErr == nil:
			t.Fatalf("view decode: %v, full decoder accepts", err)
		case err == nil && fullErr != nil && whole:
			t.Fatalf("view decode of every run accepts, full decoder: %v", fullErr)
		case err != nil:
			if !sameEdgeBits(got, prefix) {
				t.Fatalf("failed view decode returned %d edges, want the prefix back", len(got))
			}
		case fullErr == nil:
			want := filtered(full, filter)
			if !sameEdgeBits(got[:1], prefix) || !sameEdgeBits(got[1:], want) {
				t.Fatalf("view gives %d edges, the filtered full decode %d", len(got)-1, len(want))
			}
		}
		// err == nil && fullErr != nil under a partial filter: the damage
		// sits in a run the filter leaves alone.
	}
	var every []VertexID
	for _, r := range v.runs[:len(v.runs)-1] {
		every = append(every, r.Src)
	}
	withFilter(every, func(f []uint64) { check(f, true) })
	if fullErr == nil && viewLen(v) != len(full) {
		t.Fatalf("view reports %d edges, full decoder %d", viewLen(v), len(full))
	}
	for _, srcs := range filters {
		withFilter(srcs, func(f []uint64) { check(f, false) })
	}
	return true
}

// cellSources lists the distinct sources of edges in order of appearance.
func cellSources(edges []Edge) []VertexID {
	var srcs []VertexID
	seen := make(map[VertexID]bool)
	for _, e := range edges {
		if !seen[e.Src] {
			seen[e.Src] = true
			srcs = append(srcs, e.Src)
		}
	}
	return srcs
}

// cellFilters draws the source sets the differential tests hold a cell's view
// to: none, about 1% of its sources, all of them, everything below a 64-bit
// word boundary inside the cell, everything from it on, the two IDs either
// side of it, and an ID past the cell's last source.
func cellFilters(rng *rand.Rand, edges []Edge) [][]VertexID {
	srcs := cellSources(edges)
	lo, hi := slices.Min(srcs), slices.Max(srcs)
	sparse := []VertexID{srcs[rng.Intn(len(srcs))]}
	for _, s := range srcs {
		if rng.Intn(100) == 0 {
			sparse = append(sparse, s)
		}
	}
	boundary := max((lo+(hi-lo)/2)&^63, 1)
	var below, above []VertexID
	for _, s := range srcs {
		if s < boundary {
			below = append(below, s)
		} else {
			above = append(above, s)
		}
	}
	return [][]VertexID{nil, sparse, srcs, below, above, {boundary - 1, boundary}, {min(hi, math.MaxUint32-1) + 1}}
}

func TestRunViewMatchesFilteredBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var v RunView // one view across every cell, as a pool hands it out
	for _, bases := range [][2]VertexID{{0, 0}, {100, 300}, {math.MaxUint32 - 1<<14, math.MaxUint32 - 64}, {math.MaxUint32, math.MaxUint32}} {
		for _, maxRun := range []int{1, 8, 4096} {
			for gapBytes := 1; gapBytes <= 5; gapBytes++ {
				for _, sorted := range []bool{true, false} {
					for _, weighted := range []bool{false, true} {
						runs := 1 + rng.Intn(200)
						if maxRun > 8 {
							runs = 1 + rng.Intn(12) // long runs: enough edges already
						}
						edges := genDeltaCell(rng, runs, maxRun, gapBytes, sorted, weighted, bases[0], bases[1])
						data := EncodeDeltaBlock(nil, edges, bases[0], bases[1], weighted)
						viewed := checkViewAgainstBlock(t, &v, data, bases[0], bases[1], weighted, cellFilters(rng, edges)...)
						// The encoder folds consecutive equal sources into one
						// run, so a sorted cell's runs strictly ascend.
						if sorted && !viewed {
							t.Fatalf("bases %v maxRun %d gapBytes %d weighted %t: a cell with ascending sources got no view", bases, maxRun, gapBytes, weighted)
						}
					}
				}
			}
		}
	}
}

// TestRunViewStopsAtTheFilter: a frontier bitmap is sized by the vertex count,
// but the view must not read past whatever it is handed — sources beyond the
// filter count as inactive.
func TestRunViewStopsAtTheFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := genDeltaCell(rng, 300, 4, 2, true, true, 64, 0)
	data := EncodeDeltaBlock(nil, edges, 64, 0, true)
	var v RunView
	if !v.Scan(data, 64, 0, true) {
		t.Fatal("no view")
	}
	withFilter(cellSources(edges), func(all []uint64) {
		for n := 0; n <= len(all); n++ {
			got, err := v.AppendActive(nil, all[:n])
			if want := filtered(edges, all[:n]); err != nil || !sameEdgeBits(got, want) {
				t.Fatalf("filter of %d words: %d edges, %v; want %d", n, len(got), err, len(want))
			}
		}
	})
}

// TestRunViewFallsBackOnUnorderedSources: a block the full decoder accepts but
// whose runs do not ascend — descending, or one source split over two runs —
// is declined, not failed, and so is a run of length zero.
func TestRunViewFallsBackOnUnorderedSources(t *testing.T) {
	run := func(b []byte, srcRel, runLen uint64, gaps ...int64) []byte {
		b = binary.AppendUvarint(b, srcRel)
		b = binary.AppendUvarint(b, runLen)
		for _, g := range gaps {
			b = binary.AppendVarint(b, g)
		}
		return b
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"descending", EncodeDeltaBlock(nil, []Edge{{Src: 9, Dst: 1}, {Src: 4, Dst: 2}}, 0, 0, false)},
		{"split source", run(run(binary.AppendUvarint(nil, 2), 5, 1, 7), 5, 1, 8)},
		{"empty run", run(run(binary.AppendUvarint(nil, 1), 2, 0), 5, 1, 8)},
	} {
		if _, err := AppendDeltaBlock(nil, c.data, 0, 0, false); err != nil {
			t.Fatalf("%s: full decoder rejects: %v", c.name, err)
		}
		var v RunView
		if v.Scan(c.data, 0, 0, false) {
			t.Errorf("%s: viewed", c.name)
		}
	}
}

// TestRunViewMalformedMatchesBlock cuts a block at every offset and damages
// every byte of it three ways: each result is viewed with the full decoder's
// verdict or declined, never a panic.
func TestRunViewMalformedMatchesBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	var v RunView
	for _, weighted := range []bool{false, true} {
		for _, sorted := range []bool{true, false} {
			edges := genDeltaCell(rng, 12, 6, 4, sorted, weighted, 100, 300)
			data := EncodeDeltaBlock(nil, edges, 100, 300, weighted)
			filters := cellFilters(rng, edges)
			for cut := 0; cut < len(data); cut++ {
				checkViewAgainstBlock(t, &v, data[:cut], 100, 300, weighted, filters...)
			}
			for at := range data {
				for _, flip := range []byte{0x01, 0x80, 0xff} {
					bad := slices.Clone(data)
					bad[at] ^= flip
					checkViewAgainstBlock(t, &v, bad, 100, 300, weighted, filters...)
					// Near the top of the ID space the same damage also
					// overflows sources and destinations.
					checkViewAgainstBlock(t, &v, bad, math.MaxUint32-200, math.MaxUint32-400, weighted)
				}
			}
		}
	}
	// What damage rarely produces, the checks the scan defers among them.
	block := func(n, srcRel, runLen uint64, gaps ...int64) []byte {
		b := binary.AppendUvarint(nil, n)
		b = binary.AppendUvarint(b, srcRel)
		b = binary.AppendUvarint(b, runLen)
		for _, g := range gaps {
			b = binary.AppendVarint(b, g)
		}
		return b
	}
	elevenByteGap := append(block(1, 0, 1), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)
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
		{"gap of eleven bytes", 0, 0, elevenByteGap},
		{"run longer than the header count", 0, 0, block(1, 0, 2, 0, 0)},
		{"runs shorter than the header count", 0, 0, block(3, 0, 2, 0, 0)},
		{"run longer than the bytes left", 0, 0, block(4, 0, 4, 0)},
		{"count past the payload", 0, 0, block(1<<40, 0, 1, 0)},
	} {
		if _, err := AppendDeltaBlock(nil, c.data, c.srcBase, c.dstBase, false); err == nil {
			t.Fatalf("%s: full decoder accepts", c.name)
		}
		checkViewAgainstBlock(t, &v, c.data, c.srcBase, c.dstBase, false)
	}
}

// TestRunViewReusesItsMemory pins the pooled cost: a view that has seen a
// block of this shape scans the next one, and decodes its active runs into a
// scratch slice that has held as many, without allocating.
func TestRunViewReusesItsMemory(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(5))
	for _, weighted := range []bool{false, true} {
		edges := genDeltaCell(rng, 2000, 16, 2, true, weighted, 0, 0)
		data := EncodeDeltaBlock(nil, edges, 0, 0, weighted)
		withFilter(cellFilters(rng, edges)[1], func(filter []uint64) {
			var v RunView
			var scratch []Edge
			step := func() {
				if !v.Scan(data, 0, 0, weighted) {
					t.Fatal("no view")
				}
				var err error
				if scratch, err = v.AppendActive(scratch[:0], filter); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
				t.Errorf("weighted=%t: %v allocations per scan + active decode, want 0", weighted, allocs)
			}
			if want := filtered(edges, filter); len(want) == 0 || !sameEdgeBits(scratch, want) {
				t.Errorf("weighted=%t: %d active edges, want %d", weighted, len(scratch), len(want))
			}
		})
	}
}

// TestRunViewAttachHoldsTheShape: a directory attaches only to a payload of
// the shape it was scanned from — header count, run section length, weight
// column — so bytes of any other shape are scanned afresh; and a payload of the
// same shape but another block's content, which Attach cannot tell apart (the
// caller's checksum does), decodes a run to an error or to the count the
// directory names, beginning and ending with the source it names.
func TestRunViewAttachHoldsTheShape(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, weighted := range []bool{false, true} {
		a := genDeltaCell(rng, 40, 6, 2, true, weighted, 100, 300)
		dataA := EncodeDeltaBlock(nil, a, 100, 300, weighted)
		var v RunView
		if !v.Scan(dataA, 100, 300, weighted) {
			t.Fatal("no view")
		}
		dir := v.Dir()

		var zero RunDir
		if v.Attach(zero, dataA) {
			t.Fatal("the zero directory attached")
		}
		for name, other := range map[string][]byte{
			"another block":   EncodeDeltaBlock(nil, genDeltaCell(rng, 41, 6, 2, true, weighted, 100, 300), 100, 300, weighted),
			"an edge fewer":   EncodeDeltaBlock(nil, a[:len(a)-1], 100, 300, weighted),
			"a byte short":    dataA[:len(dataA)-1],
			"a byte over":     append(slices.Clone(dataA), 0),
			"no header":       nil,
			"the other codec": EncodeDeltaBlock(nil, a, 100, 300, !weighted),
		} {
			if v.Attach(dir, other) {
				t.Errorf("weighted=%t: directory attached to %s", weighted, name)
			}
			if got, err := v.AppendActive(nil, []uint64{^uint64(0)}); len(got) != 0 || err != nil {
				t.Errorf("weighted=%t: view declined for %s still decodes %d edges, %v", weighted, name, len(got), err)
			}
		}

		// Same shape, other content: every destination gap of A rewritten, then
		// each run's source moved in turn.
		withFilter(cellSources(a), func(filter []uint64) {
			moved := slices.Clone(a)
			for k := range moved {
				moved[k].Dst ^= 1
			}
			dataB := EncodeDeltaBlock(nil, moved, 100, 300, weighted)
			if len(dataB) != len(dataA) || !v.Attach(dir, dataB) {
				t.Fatalf("weighted=%t: a block with A's runs and other destinations, %d bytes for A's %d, declined", weighted, len(dataB), len(dataA))
			}
			if got, err := v.AppendActive(nil, filter); err != nil || !sameEdgeBits(got, moved) {
				t.Fatalf("weighted=%t: block with A's runs and other destinations: %d edges, %v", weighted, len(got), err)
			}
			for _, r := range dir.runs[:len(dir.runs)-1] {
				bad := slices.Clone(dataA)
				body := bad[len(bad)-len(v.weights)-len(v.body):]
				body[r.Off] ^= 1 // the run's source varint: one byte for these cells
				if !v.Attach(dir, bad) {
					t.Fatal("same shape declined")
				}
				got, err := v.AppendActive(nil, filter)
				if err == nil {
					t.Fatalf("weighted=%t: run of source %d re-sourced in the payload decoded to %d edges under the old directory", weighted, r.Src, len(got))
				}
			}
		})
	}
}

// TestCellBoundsEveryDecode: under a cell, the block decoder refuses a source
// or a destination outside it, wherever in the block it sits; a scan declines
// a run whose source is outside, and a view's decode refuses the run holding a
// destination outside — while the same bytes decode unbounded, and a block
// inside its cell decodes the same either way.
func TestCellBoundsEveryDecode(t *testing.T) {
	c := Cell{SrcLo: 64, SrcHi: 128, DstLo: 1000, DstHi: 1100}
	inside := []Edge{{Src: 64, Dst: 1000, Weight: 1}, {Src: 64, Dst: 1099, Weight: 2}, {Src: 127, Dst: 1050, Weight: 3}}
	data := EncodeDeltaBlock(nil, inside, 64, 1000, true)
	if got, err := AppendDeltaCell(nil, data, c, true); err != nil || !sameEdgeBits(got, inside) {
		t.Fatalf("block inside its cell: %v, %v", got, err)
	}
	if err := c.Check(inside); err != nil {
		t.Fatalf("Check of a block inside its cell: %v", err)
	}
	for name, bad := range map[string]Edge{
		"source above":      {Src: 128, Dst: 1000},
		"destination below": {Src: 100, Dst: 999},
		"destination above": {Src: 100, Dst: 1100},
	} {
		edges := append(slices.Clone(inside[:2]), bad, Edge{Src: 127, Dst: 1050})
		slices.SortStableFunc(edges, func(x, y Edge) int { return int(x.Src) - int(y.Src) })
		data := EncodeDeltaBlock(nil, edges, 64, 1000, false)
		if _, err := AppendDeltaBlock(nil, data, 64, 1000, false); err != nil {
			t.Fatalf("%s: unbounded decode: %v", name, err)
		}
		if _, err := AppendDeltaCell(nil, data, c, false); err == nil {
			t.Errorf("%s: AppendDeltaCell accepted %d->%d", name, bad.Src, bad.Dst)
		}
		if err := c.Check(edges); err == nil {
			t.Errorf("%s: Check accepted %d->%d", name, bad.Src, bad.Dst)
		}
		var v RunView
		if !v.Scan(data, 64, 1000, false) {
			t.Fatalf("%s: unbounded scan declined", name)
		}
		if !v.ScanCell(data, c, false) {
			if bad.Src < 128 {
				t.Errorf("%s: a scan under the cell declined a destination", name)
			}
			continue // the caller decodes with AppendDeltaCell
		}
		if bad.Src >= 128 {
			t.Errorf("%s: a scan under the cell accepted source %d", name, bad.Src)
		}
		if _, err := v.AppendActive(nil, []uint64{0, ^uint64(0)}); err == nil {
			t.Errorf("%s: a view under the cell decoded %d->%d", name, bad.Src, bad.Dst)
		}
	}
}

// TestSeekRunMatchesLinearScan holds seekRun to the first index at or after
// pos whose source is at least s, found one entry at a time, over random
// strictly ascending directories — dense, gapped, a single run — for every pos
// up to and including the end and every s from below the first source to past
// the last.
func TestSeekRunMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	linear := func(runs []runSpan, pos int, s VertexID) int {
		for pos < len(runs) && runs[pos].Src < s {
			pos++
		}
		return pos
	}
	for trial := 0; trial < 300; trial++ {
		n, maxGap := 1+rng.Intn(40), 1 // dense
		switch trial % 3 {
		case 1:
			maxGap = 1 + rng.Intn(6) // gapped
		case 2:
			n = 1 // a single run
		}
		runs := make([]runSpan, n)
		src := VertexID(rng.Intn(100))
		for k := range runs {
			runs[k].Src = src
			src += VertexID(1 + rng.Intn(maxGap))
		}
		for pos := 0; pos <= n; pos++ {
			for s := runs[0].Src - min(runs[0].Src, 2); s <= runs[n-1].Src+3; s++ {
				if got, want := seekRun(runs, pos, s), linear(runs, pos, s); got != want {
					t.Fatalf("sources %v from %d: seekRun(%d) = %d, a linear scan %d", runs, pos, s, got, want)
				}
			}
		}
	}
}

// attachedSpan builds a block of two runs, source 5 then source 70, whose
// first run's span is the given bytes — its header and gaps, 7 bytes of them
// — and attaches to it the directory scanned from the block whose first span
// is 5, 3, then the gaps 0x82 0x01, 0x82 0x01 and 2: a payload of that shape
// that the caller's checksum would have ruled out.
func attachedSpan(t *testing.T, span []byte) *RunView {
	t.Helper()
	block := func(first []byte) []byte {
		if len(first) != 7 {
			t.Fatalf("a first span of %d bytes, want 7", len(first))
		}
		data := binary.AppendUvarint(nil, 4)
		data = append(data, first...)
		return append(data, 70, 1, 8) // source 70, one edge, gap +4
	}
	var scanned, v RunView
	if !scanned.Scan(block([]byte{5, 3, 0x82, 0x01, 0x82, 0x01, 2}), 0, 0, false) {
		t.Fatal("no view of the scanned block")
	}
	if !v.Attach(scanned.Dir(), block(span)) {
		t.Fatalf("span % x: declined", span)
	}
	return &v
}

// TestRunViewHoldsTheHeaderToItsEntry: under an attached directory, a span
// whose header names another source or another length than its entry, or
// whose gaps end before or after the next entry, decodes to an error and the
// caller's slice back as it was — never to edges. That includes the spans the
// general run decoder would accept, edge for edge of the entry's source: a run
// followed or preceded by a zero-length run, and the entry's run split in two.
func TestRunViewHoldsTheHeaderToItsEntry(t *testing.T) {
	v := attachedSpan(t, []byte{5, 3, 0x82, 0x01, 0x82, 0x01, 2})
	if got, err := v.AppendActive(nil, []uint64{1 << 5}); err != nil || len(got) != 3 || got[2] != (Edge{Src: 5, Dst: 131}) {
		t.Fatalf("the scanned bytes under their own directory: %v, %v", got, err)
	}
	for name, span := range map[string][]byte{
		"another source":              {6, 3, 0x82, 0x01, 0x82, 0x01, 2},
		"another length":              {5, 2, 0x82, 0x01, 0x82, 0x01, 2},
		"a longer length":             {5, 4, 2, 2, 2, 2, 2},
		"gaps ending before":          {5, 3, 2, 2, 2, 0xff, 0xff},
		"gaps ending after":           {5, 3, 0x82, 0x01, 0x82, 0x01, 0x82},
		"a trailing zero-length run":  {5, 3, 2, 2, 2, 5, 0},
		"a zero-length run of 6":      {5, 3, 2, 2, 2, 6, 0},
		"a leading zero-length run":   {5, 0, 5, 3, 2, 2, 2},
		"the run split in two":        {5, 1, 2, 5, 2, 2, 2},
		"a bad gap varint":            {5, 3, 0xff, 0xff, 0xff, 0xff, 0xff},
		"a source outside the uint32": {0xff, 0xff, 0xff, 0xff, 0x7f, 3, 2},
	} {
		prefix := []Edge{{Src: 1, Dst: 2, Weight: 3}}
		got, err := attachedSpan(t, span).AppendActive(slices.Clone(prefix), []uint64{1 << 5})
		if err == nil || !sameEdgeBits(got, prefix) {
			t.Errorf("%s (% x): %d edges after the prefix, %v; want an error and the prefix", name, span, len(got)-1, err)
		}
	}
}
