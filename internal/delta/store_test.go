package delta_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// buildBase builds g as a mutable-ready layout on a fresh device.
func buildBase(t *testing.T, g *graph.Graph, p int, codec graph.Codec) *storage.Device {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Build(dev, g, p, partition.WithCodec(codec)); err != nil {
		t.Fatal(err)
	}
	return dev
}

// freshLayout builds g on its own device — the "freshly preprocessed
// merged layout" mutated stores are compared against.
func freshLayout(t *testing.T, g *graph.Graph, p int, codec graph.Codec) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(dev, g, p, partition.WithCodec(codec))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func openStore(t *testing.T, dev *storage.Device, opts delta.Options) *delta.Store {
	t.Helper()
	s, err := delta.Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// assertEqualLayouts checks got (typically a snapshot view over base +
// deltas) against want (a fresh build of the merged graph): per-block edge
// counts, decoded edges including weights, synthesized payload bytes,
// degrees, and edge totals must all be bit-identical.
func assertEqualLayouts(t *testing.T, got, want *partition.Layout) {
	t.Helper()
	if got.Meta.NumEdges != want.Meta.NumEdges {
		t.Fatalf("NumEdges = %d, want %d", got.Meta.NumEdges, want.Meta.NumEdges)
	}
	p := want.Meta.P
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if g, w := got.Meta.SubBlockEdges(i, j), want.Meta.SubBlockEdges(i, j); g != w {
				t.Fatalf("block (%d,%d): %d edges, want %d", i, j, g, w)
			}
			ge, _, err := got.LoadSubBlockInto(i, j, nil, nil)
			if err != nil {
				t.Fatalf("block (%d,%d): %v", i, j, err)
			}
			we, _, err := want.LoadSubBlockInto(i, j, nil, nil)
			if err != nil {
				t.Fatalf("block (%d,%d): %v", i, j, err)
			}
			if len(ge) != len(we) {
				t.Fatalf("block (%d,%d): loaded %d edges, want %d", i, j, len(ge), len(we))
			}
			for k := range we {
				if ge[k] != we[k] {
					t.Fatalf("block (%d,%d) edge %d: %+v, want %+v", i, j, k, ge[k], we[k])
				}
			}
			payload := func(l *partition.Layout) []byte {
				r := l.BlockReader(i, j)
				defer r.Close()
				p, err := l.LoadSubBlockPayloadFrom(r, i, j, nil)
				if err != nil {
					t.Fatalf("block (%d,%d) payload: %v", i, j, err)
				}
				return p
			}
			gp, wp := payload(got), payload(want)
			if !bytes.Equal(gp, wp) {
				t.Fatalf("block (%d,%d): payloads differ (%d vs %d bytes)", i, j, len(gp), len(wp))
			}
		}
	}
	gd, err := got.LoadDegrees()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := want.LoadDegrees()
	if err != nil {
		t.Fatal(err)
	}
	for v := range wd {
		if gd[v] != wd[v] {
			t.Fatalf("degree of %d = %d, want %d", v, gd[v], wd[v])
		}
	}
}

// mutationScript generates a deterministic mixed workload over g: inserts
// of fresh edges, re-inserts over existing ones, deletes of existing edges
// and of absent edges.
func mutationScript(g *graph.Graph, batches, perBatch int, seed int64) [][]delta.Mutation {
	rng := rand.New(rand.NewSource(seed))
	n := uint32(g.NumVertices)
	out := make([][]delta.Mutation, batches)
	for b := range out {
		muts := make([]delta.Mutation, 0, perBatch)
		for k := 0; k < perBatch; k++ {
			m := delta.Mutation{
				Src: graph.VertexID(rng.Uint32() % n),
				Dst: graph.VertexID(rng.Uint32() % n),
			}
			if rng.Intn(3) == 0 {
				m.Op = delta.OpDelete
			} else {
				m.Op = delta.OpInsert
				if g.Weighted {
					m.Weight = float32(rng.Intn(100)) / 4
				}
			}
			if rng.Intn(4) == 0 && len(g.Edges) > 0 {
				// Target an existing edge so deletes and re-inserts hit.
				e := g.Edges[rng.Intn(len(g.Edges))]
				m.Src, m.Dst = e.Src, e.Dst
			}
			muts = append(muts, m)
		}
		out[b] = muts
	}
	return out
}

func flatten(batches [][]delta.Mutation) []delta.Mutation {
	var all []delta.Mutation
	for _, b := range batches {
		all = append(all, b...)
	}
	return all
}

func testGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestApplyReadsMergedView(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			g := testGraph(t, 120, 600, 1)
			dev := buildBase(t, g, 3, codec)
			s := openStore(t, dev, delta.Options{})
			batches := mutationScript(g, 4, 25, 2)
			for _, b := range batches {
				if err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			v := s.Snapshot()
			defer v.Release()
			assertEqualLayouts(t, v.Layout(), freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, codec))
		})
	}
}

func TestDeleteRemovesDuplicateBaseCopies(t *testing.T) {
	g := &graph.Graph{
		NumVertices: 8,
		Edges: []graph.Edge{
			{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2}, // duplicates
			{Src: 2, Dst: 3}, {Src: 4, Dst: 5},
		},
	}
	dev := buildBase(t, g, 2, graph.CodecRaw)
	s := openStore(t, dev, delta.Options{})
	script := []delta.Mutation{
		{Op: delta.OpDelete, Src: 1, Dst: 2}, // removes all three copies
		{Op: delta.OpInsert, Src: 2, Dst: 3}, // re-insert over existing: still one copy
		{Op: delta.OpDelete, Src: 6, Dst: 7}, // absent: no-op
		{Op: delta.OpInsert, Src: 0, Dst: 7}, // fresh edge
		{Op: delta.OpInsert, Src: 5, Dst: 1}, // fresh edge, then
		{Op: delta.OpDelete, Src: 5, Dst: 1}, // deleted again in the same batch
	}
	if err := s.Apply(script); err != nil {
		t.Fatal(err)
	}
	v := s.Snapshot()
	defer v.Release()
	want := delta.ApplyToGraph(g, script)
	if want.NumEdges() != 3 {
		t.Fatalf("reference semantics: %d edges, want 3", want.NumEdges())
	}
	assertEqualLayouts(t, v.Layout(), freshLayout(t, want, 2, graph.CodecRaw))
	if got := v.Meta().NumEdges; got != 3 {
		t.Fatalf("merged NumEdges = %d, want 3", got)
	}
}

func TestValidationRejectsBadMutations(t *testing.T) {
	g := testGraph(t, 16, 40, 3)
	dev := buildBase(t, g, 2, graph.CodecRaw)
	s := openStore(t, dev, delta.Options{})
	for _, bad := range [][]delta.Mutation{
		{{Op: 0, Src: 1, Dst: 2}},
		{{Op: delta.OpInsert, Src: 99, Dst: 2}},
		{{Op: delta.OpDelete, Src: 1, Dst: 1000}},
	} {
		if err := s.Apply(bad); err == nil {
			t.Fatalf("mutation %+v accepted, want error", bad[0])
		}
	}
	// A rejected batch must leave no trace.
	if st := s.Stats(); st.Accepted != 0 || st.MutationsTotal != 0 {
		t.Fatalf("rejected batches counted: %+v", st)
	}
}

func TestSealPublishesLayersAndRestartRecovers(t *testing.T) {
	g := testGraph(t, 100, 500, 4)
	dir := t.TempDir()
	dev, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Build(dev, g, 3); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dev, delta.Options{})
	batches := mutationScript(g, 6, 20, 5)
	for k, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		if k == 2 { // seal mid-script: later batches stay in the memtable
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Seals != 1 || st.Layers != 1 {
		t.Fatalf("seals=%d layers=%d, want 1/1", st.Seals, st.Layers)
	}
	if st.MutationsTotal == 0 {
		t.Fatalf("MutationsTotal = 0 after %d batches", len(batches))
	}
	s.Close()

	// Restart: reload the device, layers from the manifest, memtable from
	// the WAL.
	dev2, err := storage.OpenDevice(dir, storage.SSD)
	if err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dev2, delta.Options{})
	st2 := s2.Stats()
	if st2.Layers != 1 {
		t.Fatalf("after restart: %d layers, want 1", st2.Layers)
	}
	if st2.MutationsTotal != st.MutationsTotal {
		t.Fatalf("after restart: MutationsTotal = %d, want %d", st2.MutationsTotal, st.MutationsTotal)
	}
	v := s2.Snapshot()
	defer v.Release()
	assertEqualLayouts(t, v.Layout(), freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, graph.CodecRaw))
}

func TestCompactionConvergesAndMatchesFreshBuild(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			g := testGraph(t, 150, 900, 6)
			dev := buildBase(t, g, 3, codec)
			// A 1-byte memtable seals after every batch: many layers.
			s := openStore(t, dev, delta.Options{MemtableBytes: 1})
			batches := mutationScript(g, 5, 30, 7)
			for _, b := range batches {
				if err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Stats(); st.Layers < 4 {
				t.Fatalf("expected >= 4 layers before compaction, got %d", st.Layers)
			}
			if !s.NeedsCompaction() {
				t.Fatal("NeedsCompaction = false with a full stack of layers")
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Layers != 0 {
				t.Fatalf("layer count did not converge: %d layers after compaction", st.Layers)
			}
			if st.Generation != 1 {
				t.Fatalf("generation = %d, want 1", st.Generation)
			}
			merged := delta.ApplyToGraph(g, flatten(batches))
			v := s.Snapshot()
			defer v.Release()
			assertEqualLayouts(t, v.Layout(), freshLayout(t, merged, 3, codec))

			// Post-compaction read I/O must match a fresh preprocess of the
			// merged graph: with zero overlay left, the per-block on-disk
			// bytes are byte-identical, so the 1.05x acceptance bound holds
			// with margin.
			fresh := freshLayout(t, merged, 3, codec)
			gotBytes := v.Meta().EdgeDiskBytesTotal()
			wantBytes := fresh.Meta.EdgeDiskBytesTotal()
			if gotBytes != wantBytes {
				t.Fatalf("post-compaction disk bytes %d, want %d (fresh build)", gotBytes, wantBytes)
			}

			// Mutations keep flowing after compaction.
			more := mutationScript(merged, 2, 15, 8)
			for _, b := range more {
				if err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			v2 := s.Snapshot()
			defer v2.Release()
			assertEqualLayouts(t, v2.Layout(), freshLayout(t, delta.ApplyToGraph(merged, flatten(more)), 3, codec))
		})
	}
}

func TestSnapshotIsolationAtStoreLevel(t *testing.T) {
	g := testGraph(t, 100, 500, 9)
	dev := buildBase(t, g, 3, graph.CodecDelta)
	s := openStore(t, dev, delta.Options{MemtableBytes: 1})
	first := mutationScript(g, 3, 20, 10)
	for _, b := range first {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	frozen := delta.ApplyToGraph(g, flatten(first))
	v := s.Snapshot()
	defer v.Release()

	// Everything that happens after the pin — writes, seals, a full
	// compaction publishing a new generation — must be invisible to v.
	second := mutationScript(frozen, 3, 20, 11)
	for _, b := range second {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	assertEqualLayouts(t, v.Layout(), freshLayout(t, frozen, 3, graph.CodecDelta))

	// And a snapshot taken now sees all of it.
	v2 := s.Snapshot()
	defer v2.Release()
	assertEqualLayouts(t, v2.Layout(),
		freshLayout(t, delta.ApplyToGraph(frozen, flatten(second)), 3, graph.CodecDelta))
}

func TestRetiredFilesAreCollectedAfterRelease(t *testing.T) {
	g := testGraph(t, 80, 400, 12)
	dev := buildBase(t, g, 2, graph.CodecRaw)
	s := openStore(t, dev, delta.Options{MemtableBytes: 1})
	for _, b := range mutationScript(g, 3, 20, 13) {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Snapshot() // pins generation 0
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RetiredFiles == 0 {
		t.Fatal("no files retired by compaction while a pin is held")
	}
	// The pinned view still reads generation-0 files.
	assertEqualLayouts(t, v.Layout(), freshLayout(t, delta.ApplyToGraph(g, flatten(mutationScript(g, 3, 20, 13))), 2, graph.CodecRaw))
	v.Release()
	if st := s.Stats(); st.RetiredFiles != 0 {
		t.Fatalf("%d files still retired after the last pin released", st.RetiredFiles)
	}
	// Old-generation block files are gone from the device.
	names, err := dev.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == partition.SubBlockName(0, 0) || n == partition.DegreesNameAt(0) {
			t.Fatalf("stale generation-0 file %s survived GC", n)
		}
	}
}

func TestWeightedMutations(t *testing.T) {
	// Dedupe first: duplicate keys with distinct weights have no canonical
	// order (both Build and the reference sort are unstable), so the
	// bit-identical comparison is only defined on a duplicate-free base.
	g := graph.Dedupe(testGraph(t, 60, 300, 14))
	g.Weighted = true
	rng := rand.New(rand.NewSource(15))
	for k := range g.Edges {
		g.Edges[k].Weight = float32(rng.Intn(64)) / 2
	}
	dev := buildBase(t, g, 2, graph.CodecDelta)
	s := openStore(t, dev, delta.Options{})
	batches := mutationScript(g, 3, 20, 16)
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	v := s.Snapshot()
	defer v.Release()
	assertEqualLayouts(t, v.Layout(), freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 2, graph.CodecDelta))
}

// TestCompactedDegreesVerified: compaction writes the new generation's degree
// table through the builders' writer, checksum included, so same-size damage to
// degrees_g000001.bin is an error naming that file — for a snapshot of the
// running store and for a store reopened on the damaged device.
func TestCompactedDegreesVerified(t *testing.T) {
	g := testGraph(t, 120, 700, 41)
	dev := buildBase(t, g, 3, graph.CodecRaw)
	s := openStore(t, dev, delta.Options{})
	for _, b := range mutationScript(g, 2, 30, 42) {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	name := partition.DegreesNameAt(1)
	v := s.Snapshot()
	defer v.Release()
	if _, err := v.Layout().LoadDegrees(); err != nil {
		t.Fatalf("undamaged %s: %v", name, err)
	}
	table, err := dev.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(table); k += 4 {
		table[k] ^= 1
	}
	if err := dev.WriteFile(name, table); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Layout().LoadDegrees(); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("running store: LoadDegrees said %v, want an error naming %s", err, name)
	}
	s.Close()
	v2 := openStore(t, dev, delta.Options{}).Snapshot()
	defer v2.Release()
	if _, err := v2.Layout().LoadDegrees(); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("reopened store: LoadDegrees said %v, want an error naming %s", err, name)
	}
}
