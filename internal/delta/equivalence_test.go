package delta_test

import (
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
)

// engineMatrix enumerates the execution configurations a mutated layout
// must be bit-identical under: forced FCIU, forced SCIU (selective
// per-vertex reads through the overlay), the adaptive scheduler, FCIU with a
// buffer that holds every secondary — on the delta codec as payloads, the
// merged blocks encoded on the prefetch workers — and the asynchronous engine
// without and with its buffer.
func engineMatrix() map[string]core.Options {
	return map[string]core.Options{
		"fciu":           {ForceModel: core.ForceFull, DefaultBuffer: true},
		"sciu":           {ForceModel: core.ForceOnDemand},
		"adaptive":       {DefaultBuffer: true},
		"fciu-resident":  {ForceModel: core.ForceFull, BufferBytes: 1 << 30},
		"async":          {Async: true},
		"async-buffered": {Async: true, DefaultBuffer: true},
	}
}

// TestMutatedRunsMatchFreshLayout is the acceptance matrix: a query over
// base + delta layers + memtable must produce bit-identical outputs to the
// same query over a freshly preprocessed layout of the merged edge set,
// across update models, codecs, buffer residency, and BSP/async execution.
func TestMutatedRunsMatchFreshLayout(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			g := testGraph(t, 200, 1200, 21)
			dev := buildBase(t, g, 3, codec)
			// Small memtable: part of the script lands in sealed layers,
			// the rest stays in the frozen memtable, so reads traverse all
			// three LSM levels.
			s := openStore(t, dev, delta.Options{MemtableBytes: 2048})
			batches := mutationScript(g, 5, 40, 22)
			for _, b := range batches {
				if err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Stats(); st.Layers == 0 || st.MemtableKeys == 0 {
				t.Fatalf("script must span layers and memtable, got layers=%d memKeys=%d",
					st.Layers, st.MemtableKeys)
			}
			fresh := freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, codec)
			v := s.Snapshot()
			defer v.Release()

			for name, opts := range engineMatrix() {
				t.Run(name, func(t *testing.T) {
					for _, prog := range []struct {
						name string
						mk   func() core.Program
					}{
						{"pagerank-delta", func() core.Program { return &algorithms.PageRankDelta{Iterations: 8} }},
						{"bfs", func() core.Program { return &algorithms.BFS{Source: 0} }},
					} {
						got, err := core.Run(v.Layout(), prog.mk(), opts)
						if err != nil {
							t.Fatalf("%s on mutated layout: %v", prog.name, err)
						}
						want, err := core.Run(fresh, prog.mk(), opts)
						if err != nil {
							t.Fatalf("%s on fresh layout: %v", prog.name, err)
						}
						// Async step counts may differ: the priority
						// scheduler keys on per-block disk bytes, and the
						// overlay charges base+layer bytes where the fresh
						// layout charges its own encoding. Outputs must
						// still match bit-for-bit.
						if !opts.Async && got.Iterations != want.Iterations {
							t.Fatalf("%s: %d iterations, want %d", prog.name, got.Iterations, want.Iterations)
						}
						for vid := range want.Outputs {
							if got.Outputs[vid] != want.Outputs[vid] {
								t.Fatalf("%s: vertex %d = %v, want %v (bit-exact)",
									prog.name, vid, got.Outputs[vid], want.Outputs[vid])
							}
						}
					}
				})
			}
		})
	}
}

// TestMutatedRunsMatchAfterCompaction repeats a slice of the matrix on the
// compacted layout: after folding every layer into a new base generation,
// queries must still match the fresh build bit-for-bit, and the disk
// bytes the engine reads must be within 1.05x of the fresh layout's.
func TestMutatedRunsMatchAfterCompaction(t *testing.T) {
	g := testGraph(t, 200, 1200, 23)
	dev := buildBase(t, g, 3, graph.CodecDelta)
	s := openStore(t, dev, delta.Options{MemtableBytes: 1})
	batches := mutationScript(g, 4, 40, 24)
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fresh := freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, graph.CodecDelta)
	v := s.Snapshot()
	defer v.Release()

	for name, opts := range engineMatrix() {
		t.Run(name, func(t *testing.T) {
			got, err := core.Run(v.Layout(), &algorithms.PageRankDelta{Iterations: 8}, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(fresh, &algorithms.PageRankDelta{Iterations: 8}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for vid := range want.Outputs {
				if got.Outputs[vid] != want.Outputs[vid] {
					t.Fatalf("vertex %d = %v, want %v", vid, got.Outputs[vid], want.Outputs[vid])
				}
			}
			gotBytes := got.IO.ReadBytes()
			wantBytes := want.IO.ReadBytes()
			if gotBytes > wantBytes+wantBytes/20 {
				t.Fatalf("post-compaction read bytes %d exceed 1.05x fresh-layout %d", gotBytes, wantBytes)
			}
		})
	}
}

// TestWeightedSSSPOverMutatedLayout covers the weighted read path end to
// end: weights written by upserts flow through layers, the memtable, and
// compaction into SSSP distances.
func TestWeightedSSSPOverMutatedLayout(t *testing.T) {
	g := graph.Dedupe(testGraph(t, 120, 700, 25))
	g.Weighted = true
	for k := range g.Edges {
		g.Edges[k].Weight = float32(1 + (int(g.Edges[k].Src)+int(g.Edges[k].Dst))%9)
	}
	dev := buildBase(t, g, 3, graph.CodecDelta)
	s := openStore(t, dev, delta.Options{MemtableBytes: 1024})
	batches := mutationScript(g, 3, 30, 26)
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	fresh := freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, graph.CodecDelta)
	v := s.Snapshot()
	defer v.Release()
	for _, opts := range []core.Options{{DefaultBuffer: true}, {Async: true}} {
		got, err := core.Run(v.Layout(), &algorithms.SSSP{Source: 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(fresh, &algorithms.SSSP{Source: 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for vid := range want.Outputs {
			if got.Outputs[vid] != want.Outputs[vid] {
				t.Fatalf("async=%v: vertex %d = %v, want %v", opts.Async, vid, got.Outputs[vid], want.Outputs[vid])
			}
		}
	}
}

// TestOverlayOnlyBlock exercises a sub-block that exists purely in the
// overlay: the base cell is empty, every edge comes from mutations, and
// both full and selective reads must serve it.
func TestOverlayOnlyBlock(t *testing.T) {
	// All base edges in block (0,0); mutations populate block (1,1).
	g := &graph.Graph{
		NumVertices: 8,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3}},
	}
	dev := buildBase(t, g, 2, graph.CodecDelta)
	s := openStore(t, dev, delta.Options{})
	script := []delta.Mutation{
		{Op: delta.OpInsert, Src: 5, Dst: 6},
		{Op: delta.OpInsert, Src: 6, Dst: 7},
		{Op: delta.OpInsert, Src: 7, Dst: 4},
		{Op: delta.OpInsert, Src: 4, Dst: 5},
	}
	if err := s.Apply(script); err != nil {
		t.Fatal(err)
	}
	fresh := freshLayout(t, delta.ApplyToGraph(g, script), 2, graph.CodecDelta)
	v := s.Snapshot()
	defer v.Release()
	assertEqualLayouts(t, v.Layout(), fresh)
	for name, opts := range engineMatrix() {
		got, err := core.Run(v.Layout(), &algorithms.ConnectedComponents{}, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := core.Run(fresh, &algorithms.ConnectedComponents{}, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for vid := range want.Outputs {
			if got.Outputs[vid] != want.Outputs[vid] {
				t.Fatalf("%s: vertex %d = %v, want %v", name, vid, got.Outputs[vid], want.Outputs[vid])
			}
		}
	}
}

// TestSharedCacheAcrossMutations drives two jobs through one shared cache
// around a write: the second job must not see the first job's cached
// pre-mutation blocks, because mutated blocks carry a bumped content
// version in the cache key.
func TestSharedCacheAcrossMutations(t *testing.T) {
	g := testGraph(t, 150, 900, 27)
	dev := buildBase(t, g, 3, graph.CodecDelta)
	s := openStore(t, dev, delta.Options{})
	fresh0 := freshLayout(t, g, 3, graph.CodecDelta)

	run := func(l *partition.Layout, opts core.Options) *core.Result {
		t.Helper()
		res, err := core.Run(l, &algorithms.PageRankDelta{Iterations: 6}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Plain tier.
	sc := buffer.NewShared(64 << 20)
	v0 := s.Snapshot()
	r0 := run(v0.Layout(), core.Options{SharedBlocks: sc})
	w0 := run(fresh0, core.Options{})
	for vid := range w0.Outputs {
		if r0.Outputs[vid] != w0.Outputs[vid] {
			t.Fatalf("pre-mutation run: vertex %d mismatch", vid)
		}
	}
	v0.Release()

	batches := mutationScript(g, 2, 40, 28)
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	fresh1 := freshLayout(t, delta.ApplyToGraph(g, flatten(batches)), 3, graph.CodecDelta)
	v1 := s.Snapshot()
	defer v1.Release()
	r1 := run(v1.Layout(), core.Options{SharedBlocks: sc})
	w1 := run(fresh1, core.Options{})
	for vid := range w1.Outputs {
		if r1.Outputs[vid] != w1.Outputs[vid] {
			t.Fatalf("post-mutation run served stale cache: vertex %d = %v, want %v",
				vid, r1.Outputs[vid], w1.Outputs[vid])
		}
	}

	// Compressed tiers — a compressed shared cache, and the per-run buffer of
	// payloads (delta codec) taking its entries: same discipline.
	scc := buffer.NewSharedCompressed(64 << 20)
	r2 := run(v1.Layout(), core.Options{SharedBlocks: scc, DefaultBuffer: true})
	for vid := range w1.Outputs {
		if r2.Outputs[vid] != w1.Outputs[vid] {
			t.Fatalf("compressed tier: vertex %d mismatch", vid)
		}
	}
}
