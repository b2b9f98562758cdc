package core_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"sync"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestFaultHookSeesTheSameOperations pins what a run announces to the device's
// fault hook — and so what chaos can fail, and what the device accounts — to
// what it announced when every load opened its own file: whole-block loads are
// one "read" each and nothing else, a selective pass is one "open" and one
// "readat" per run it reads, whether or not the descriptor was already there.
// The on-demand figures were recorded on the commit before block handles
// (a3633b3) by this same test. The full figures were re-recorded when dead-row
// skipping became the engine's (it was Options.SEM's): a full pass no longer
// reads the sub-blocks of a source interval without an active vertex, and a
// lattice's SSSP front crosses one or two of the four intervals at a time, so
// 305 whole-block reads became 194. Every one of the 194 is a read the old
// run made too — same names, fewer repeats. They were re-recorded again when
// FCIU began offering its primary cells (i ≤ j) to the per-run buffer beside
// the secondaries: a primary resident from an earlier pass is not read again,
// so 194 became 103, again the same names with fewer repeats.
func TestFaultHookSeesTheSameOperations(t *testing.T) {
	lattice := gen.Weighted(gen.Grid(40), 16, 5)
	for _, c := range []struct {
		name   string
		force  *iosched.Model
		ops    map[string]int
		digest uint64
	}{
		{name: "full", force: core.ForceFull, ops: map[string]int{"read": 103}, digest: 0xfcb8810ef30053e1},
		{name: "on-demand", force: core.ForceOnDemand, ops: map[string]int{"read": 11, "open": 541, "readat": 11192}, digest: 0xa284d0a9b075ca5f},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := codecLayout(t, lattice, 4, graph.CodecDelta)
			var mu sync.Mutex
			seen := make(map[string]int)
			ops := make(map[string]int)
			l.Dev.SetFaultInjector(func(op, name string) error {
				mu.Lock()
				seen[op+" "+name]++
				ops[op]++
				mu.Unlock()
				return nil
			})
			if _, err := core.Run(l, &algorithms.SSSP{Source: 0}, core.Options{ForceModel: c.force, DefaultBuffer: true}); err != nil {
				t.Fatal(err)
			}
			var lines []string
			for k, n := range seen {
				lines = append(lines, fmt.Sprintf("%s %d", k, n))
			}
			slices.Sort(lines)
			h := fnv.New64a()
			for _, line := range lines {
				h.Write([]byte(line + "\n"))
			}
			if got := h.Sum64(); got != c.digest || !maps.Equal(ops, c.ops) {
				t.Fatalf("hook saw %v, digest %#x; recorded %v, digest %#x", ops, got, c.ops, c.digest)
			}
		})
	}
}

// openDescriptors counts the process's open file descriptors.
func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	return len(fds)
}

// TestRunReleasesItsDescriptors: block handles keep files open for the length
// of a run and no longer — however the run ends.
func TestRunReleasesItsDescriptors(t *testing.T) {
	lattice := gen.Weighted(gen.Grid(40), 16, 5)
	sssp := func() core.Program { return &algorithms.SSSP{Source: 0} }
	for _, c := range []struct {
		name string
		run  func(t *testing.T, l *partition.Layout) error
	}{
		{"husgraph", func(t *testing.T, _ *partition.Layout) error {
			// Both paths: rows keep their descriptors for the run, like
			// columns, and the run closes both.
			l := buildSystem(t, "husgraph", lattice, 4, storage.HDD)
			held := 0
			base := openDescriptors(t)
			for _, m := range []*iosched.Model{core.ForceOnDemand, core.ForceFull} {
				if _, err := core.Run(l, sssp(), core.Options{ForceModel: m, OnIteration: func(core.IterStat) {
					held = max(held, openDescriptors(t)-base)
				}}); err != nil {
					return err
				}
			}
			if held == 0 {
				t.Errorf("no descriptor held between iterations")
			}
			return nil
		}},
		{"bsp", func(t *testing.T, l *partition.Layout) error {
			// While it runs, a run of 16 blocks holds some of them open.
			held := 0
			base := openDescriptors(t)
			_, err := core.Run(l, sssp(), core.Options{DefaultBuffer: true, OnIteration: func(core.IterStat) {
				held = max(held, openDescriptors(t)-base)
			}})
			if held == 0 {
				t.Errorf("no descriptor held between iterations")
			}
			return err
		}},
		{"bsp on demand, no prefetch", func(t *testing.T, l *partition.Layout) error {
			_, err := core.Run(l, sssp(), core.Options{ForceModel: core.ForceOnDemand, PrefetchDepth: -1})
			return err
		}},
		{"async", func(t *testing.T, l *partition.Layout) error {
			_, err := core.Run(l, sssp(), core.Options{DefaultBuffer: true, Async: true})
			return err
		}},
		{"cancelled mid-prefetch", func(t *testing.T, l *partition.Layout) error {
			// The fourth block read cancels the run from inside a fetch, with
			// others in flight beside it.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reads := 0
			var mu sync.Mutex
			l.Dev.SetFaultInjector(func(op, name string) error {
				mu.Lock()
				defer mu.Unlock()
				if reads++; reads == 6 {
					cancel()
				}
				return nil
			})
			defer l.Dev.SetFaultInjector(nil)
			_, err := core.RunContext(ctx, l, sssp(), core.Options{ForceModel: core.ForceFull, PrefetchDepth: 4})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled run returned %v", err)
			}
			return nil
		}},
		{"failed by chaos", func(t *testing.T, l *partition.Layout) error {
			chaos := storage.NewChaos(storage.ChaosOptions{Seed: 3, TransientReadProb: 0.2, Match: func(op, name string) bool {
				return op == "read" || op == "readat"
			}})
			l.Dev.SetFaultInjector(chaos.Injector())
			defer l.Dev.SetFaultInjector(nil)
			// No retry budget and no prefetch to degrade from: the first
			// fault fails the run.
			_, err := core.Run(l, sssp(), core.Options{DefaultBuffer: true, PrefetchDepth: -1})
			if err == nil {
				t.Errorf("run survived chaos without a retry budget")
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := codecLayout(t, lattice, 4, graph.CodecDelta)
			before := openDescriptors(t)
			if err := c.run(t, l); err != nil {
				t.Fatal(err)
			}
			if after := openDescriptors(t); after != before {
				t.Fatalf("%d descriptors open after the run, %d before it", after, before)
			}
		})
	}
}

// TestMoreBlocksThanDescriptors runs a 24×24 grid — 576 blocks, more than a run
// may keep open — under the bound and with the bound forced to zero, where
// every load opens and closes its file as loads did before handles: outputs,
// iterations, device counters and buffer outcomes must agree to the last bit
// and byte on every engine route, and the bounded run must stay under its
// bound while it runs.
func TestMoreBlocksThanDescriptors(t *testing.T) {
	rmat, err := gen.RMAT(11, 16, gen.Graph500, 24)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Weighted(rmat, 16, 2)
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		l := codecLayout(t, g, 24, codec)
		for _, c := range []struct {
			name string
			prog func() core.Program
			opts core.Options
		}{
			{"sssp", func() core.Program { return &algorithms.SSSP{Source: 0} }, core.Options{DefaultBuffer: true}},
			{"sssp full", func() core.Program { return &algorithms.SSSP{Source: 0} }, core.Options{ForceModel: core.ForceFull}},
			{"bfs on demand", func() core.Program { return &algorithms.BFS{Source: 0} }, core.Options{ForceModel: core.ForceOnDemand}},
			{"cc async", func() core.Program { return &algorithms.ConnectedComponents{} }, core.Options{DefaultBuffer: true, Async: true}},
			{"pr no prefetch", func() core.Program { return &algorithms.PageRank{Iterations: 3} }, core.Options{PrefetchDepth: -1}},
		} {
			t.Run(c.name+"/"+codec.String(), func(t *testing.T) {
				base := openDescriptors(t)
				most := 0
				opts := c.opts
				opts.OnIteration = func(core.IterStat) { most = max(most, openDescriptors(t)-base) }
				bounded, held, err := core.RunWithHandleCap(context.Background(), l, c.prog(), opts, core.MaxOpenBlocks)
				if err != nil {
					t.Fatal(err)
				}
				if held.Handles <= core.MaxOpenBlocks {
					t.Fatalf("the run touched %d blocks, not more than the %d it may keep open", held.Handles, core.MaxOpenBlocks)
				}
				if most == 0 || most > core.MaxOpenBlocks {
					t.Fatalf("%d descriptors held between iterations, want 1..%d", most, core.MaxOpenBlocks)
				}
				perLoad, _, err := core.RunWithHandleCap(context.Background(), l, c.prog(), c.opts, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputBits(t, "bounded against open-per-load", bounded.Outputs, perLoad.Outputs)
				if bounded.Iterations != perLoad.Iterations || bounded.IO != perLoad.IO || bounded.Buffer != perLoad.Buffer || bounded.Async != perLoad.Async {
					t.Fatalf("bounded run: %d iterations, I/O %+v, buffer %+v, async %+v\nopen per load: %d iterations, I/O %+v, buffer %+v, async %+v",
						bounded.Iterations, bounded.IO, bounded.Buffer, bounded.Async, perLoad.Iterations, perLoad.IO, perLoad.Buffer, perLoad.Async)
				}
			})
		}
	}
}

// TestAdmissionCoversBlockHandles: what a run's handles hold when it returns —
// after a forced on-demand run, which loads every touched block's index, and a
// forced full run over sparse frontiers, which keeps every viewed block's
// directory — stays within core.HandleBytes, the figure admission charges.
func TestAdmissionCoversBlockHandles(t *testing.T) {
	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		l := codecLayout(t, gen.Weighted(gen.Grid(48), 16, 3), 4, codec)
		bound := core.HandleBytes(&l.Meta)
		var total core.HandleStats
		for _, force := range []*iosched.Model{core.ForceOnDemand, core.ForceFull} {
			_, held, err := core.RunWithHandleCap(context.Background(), l, &algorithms.SSSP{Source: 0}, core.Options{ForceModel: force}, core.MaxOpenBlocks)
			if err != nil {
				t.Fatal(err)
			}
			total.IndexBytes = max(total.IndexBytes, held.IndexBytes)
			total.DirBytes = max(total.DirBytes, held.DirBytes)
		}
		if total.IndexBytes == 0 || (codec == graph.CodecDelta) != (total.DirBytes > 0) {
			t.Fatalf("[%s] the two runs kept %d index and %d directory bytes: routes not exercised", codec, total.IndexBytes, total.DirBytes)
		}
		if got := total.IndexBytes + total.DirBytes; got > bound {
			t.Fatalf("[%s] handles hold %d bytes (indexes %d, directories %d), admission charges %d", codec, got, total.IndexBytes, total.DirBytes, bound)
		}
	}
}

// TestRunBytesCoversEngineArrays holds the per-vertex item of core.RunBytes —
// what admission charges a job for its engine's state — to the arrays an engine
// and its schedule actually allocate, found by walking their fields: equal
// under BSP, and under async short only by the frontier's vertex list, which
// grows during the run to at most an interval. (The server once charged 34
// bytes a vertex against the 48.6 a BSP engine holds.) PageRank and
// PageRank-Delta scatter through KernelSumOverOutDegree, whose two term
// arrays the engine holds beside the values.
func TestRunBytesCoversEngineArrays(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := codecLayout(t, g, 4, graph.CodecDelta)
	var span int64
	for i := 0; i < l.Meta.P; i++ {
		span = max(span, int64(l.Meta.IntervalLen(i)))
	}
	for _, async := range []bool{false, true} {
		for _, prog := range []func() core.Program{
			func() core.Program { return &algorithms.ConnectedComponents{} },
			func() core.Program { return &algorithms.PageRank{} },
			func() core.Program { return &algorithms.PageRankDelta{} }, // keeps an aux array
		} {
			p := prog()
			if _, mono := p.(core.Monotonic); async && !mono {
				continue
			}
			held, err := core.EngineArrayBytes(l, p, core.Options{Async: async})
			if err != nil {
				t.Fatal(err)
			}
			charged := core.VertexStateBytes(&l.Meta, async, p)
			want := held
			if async {
				want += 8 * span
			}
			if charged != want {
				t.Errorf("%s async=%t: RunBytes charges %d bytes of vertex state, the engine's arrays come to %d (+ %d of frontier list under async)",
					p.Name(), async, charged, held, want-held)
			}
			if n := int64(l.Meta.NumVertices); charged < 48*n {
				t.Errorf("%s async=%t: %d bytes for %d vertices, below 48 a vertex", p.Name(), async, charged, n)
			}
		}
	}
}

// TestRunBytesPricesPooledSlices: on a delta layout a dense pass decodes its
// buffered cells into pooled slices, and so does an async row step — and
// either buffers every cell it reads. Over a layout whose largest cell sits
// above the diagonal, RunBytes must price each slice at that cell's decoded
// size: one slice per block the window holds plus the consumer's, and under
// BSP one more for the diagonal FCIU holds until its column is applied, and
// those its helper holds, queued and in flight.
func TestRunBytesPricesPooledSlices(t *testing.T) {
	g := &graph.Graph{NumVertices: 256}
	for u := 0; u < 64; u++ {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(64 + u), Dst: graph.VertexID(u)}) // secondary (1,0)
		for v := 192; v < 256; v++ {
			g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}) // (0,3)
		}
	}
	l := codecLayout(t, g, 4, graph.CodecDelta)
	m := &l.Meta
	largest, secondary := m.SubBlockBytes(0, 3), m.SubBlockBytes(1, 0)
	if secondary == 0 || largest <= 8*secondary {
		t.Fatalf("cell (0,3) holds %d decoded bytes, secondary (1,0) %d: the layout does not show the case", largest, secondary)
	}
	for _, async := range []bool{false, true} {
		for _, w := range []struct {
			depth  int
			window int64
		}{{-1, 0}, {2, 1 << 20}} {
			opts := core.Options{Async: async, PrefetchDepth: w.depth, PrefetchBytes: w.window}
			slices := int64(1 + max(w.depth, 0))
			if !async {
				slices += 1 + core.CrossQueue + 1
			}
			want := core.VertexStateBytes(m, async, nil) + core.HandleBytes(m) + w.window + slices*largest
			if got := core.RunBytes(m, opts, nil); got != want {
				t.Errorf("async=%t depth=%d: RunBytes %d, want %d with %d slices of %d bytes", async, w.depth, got, want, slices, largest)
			}
		}
	}
}

// TestPooledSlicesStayWithinRunBytes runs PageRank over an R-MAT graph on a
// delta layout with a buffer of 1/8 of its decoded edges, as the out-of-core
// benchmark does — every pass decodes most cells into pooled slices and holds
// each column's diagonal across the column — with release poisoning on. The
// pool must never hand out more slices than RunBytes prices, none may grow
// past the largest cell, and the outputs must be an unbuffered run's.
func TestPooledSlicesStayWithinRunBytes(t *testing.T) {
	g, err := gen.RMAT(11, 16, gen.Graph500, 9)
	if err != nil {
		t.Fatal(err)
	}
	l := codecLayout(t, g, 8, graph.CodecDelta)
	m := &l.Meta
	var largest int64
	for i := 0; i < m.P; i++ {
		for j := 0; j < m.P; j++ {
			largest = max(largest, m.EdgeCounts[i][j])
		}
	}
	largestBytes := largest * int64(m.EdgeRecordBytes())
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 6} }
	plain, err := core.Run(l, prog(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{-1, 2, 4} {
		opts := core.Options{BufferBytes: m.EdgeBytesTotal() / 8, PrefetchDepth: depth, PrefetchBytes: 1 << 20}
		res, pool, err := core.RunCountingPooledSlices(l, prog(), opts)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalOutputs(t, plain.Outputs, res.Outputs)
		// The buffer's capacity twice: its residents, then the spares its
		// evictions and rejections leave (TestSparesStayWithinRunBytes).
		priced := core.RunBytes(m, opts, prog()) - core.VertexStateBytes(m, false, prog()) - core.HandleBytes(m) - opts.BufferBytes - opts.BufferBytes
		if depth > 0 {
			priced -= opts.PrefetchBytes
		}
		if pool.Slices == 0 || priced%largestBytes != 0 {
			t.Fatalf("depth %d: the pool handed out %d slices, RunBytes prices %d bytes of them: not whole slices of %d", depth, pool.Slices, priced, largestBytes)
		}
		// Under the race detector the pool drops values handed back to it, so
		// its allocations bound nothing there; the slices' size still holds.
		if (!raceEnabled && int64(pool.Slices) > priced/largestBytes) || int64(pool.MaxEdges) > largest {
			t.Fatalf("depth %d: the pool handed out %d slices, up to %d edges; RunBytes prices %d of %d edges", depth, pool.Slices, pool.MaxEdges, priced/largestBytes, largest)
		}
	}
}

// TestSparesStayWithinRunBytes: the payloads the per-run buffer lets go are
// collected during a pass or row and then become spares that buffered misses
// read into, never more bytes of them, collected and spare together, at once
// than RunBytes prices — the buffer's capacity, a term that a shared cache,
// whose payloads are not the run's, takes away. It runs the R-MAT PageRank of
// TestPooledSlicesStayWithinRunBytes and SSSP over a weighted lattice under
// both schedules, with the spares poisoned as they are made, and holds every
// output to an unbuffered run's. On the lattice most misses find a spare.
func TestSparesStayWithinRunBytes(t *testing.T) {
	rmat, err := gen.RMAT(11, 16, gen.Graph500, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		prog    func() core.Program
		buffer  func(m *partition.Manifest) core.Options
		lattice bool // SSSP, under both schedules; PageRank runs BSP only
	}{
		{"rmat", rmat, func() core.Program { return &algorithms.PageRank{Iterations: 6} },
			func(m *partition.Manifest) core.Options { return core.Options{BufferBytes: m.EdgeBytesTotal() / 8} }, false},
		{"lattice", gen.Weighted(gen.Grid(128), 16, 1), func() core.Program { return &algorithms.SSSP{Source: 0} },
			func(*partition.Manifest) core.Options { return core.Options{DefaultBuffer: true} }, true},
	} {
		l := codecLayout(t, c.g, 8, graph.CodecDelta)
		m := &l.Meta
		plain, err := core.Run(l, c.prog(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		schedules := []bool{false}
		if c.lattice {
			schedules = append(schedules, true)
		}
		for _, async := range schedules {
			for _, depth := range []int{-1, 2} {
				opts := c.buffer(m)
				opts.Async, opts.PrefetchDepth = async, depth
				shared := opts
				shared.SharedBlocks = buffer.NewShared(1 << 20)
				priced := core.RunBytes(m, opts, c.prog()) - core.RunBytes(m, shared, c.prog())
				res, sp, err := core.RunCountingSpares(l, c.prog(), opts)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalOutputs(t, plain.Outputs, res.Outputs)
				t.Logf("%s async=%t depth=%d: %d of %d misses read into a spare, spares up to %d of %d priced bytes", c.name, async, depth, sp.Hits, sp.Misses, sp.HighBytes, priced)
				if priced <= 0 || sp.HighBytes > priced {
					t.Errorf("%s async=%t depth=%d: spares held %d bytes at once, RunBytes prices %d", c.name, async, depth, sp.HighBytes, priced)
				}
				if c.lattice && (sp.HighBytes == 0 || 2*sp.Hits < sp.Misses) {
					t.Errorf("%s async=%t depth=%d: %d of %d misses read into a spare", c.name, async, depth, sp.Hits, sp.Misses)
				}
			}
		}
	}
}

// TestRunBytesPricesCheckpointImage: a checkpointing run's writer keeps one
// encoded image for the whole run, so RunBytes with checkpointing on must
// exceed RunBytes with it off by at least the file the run writes, and by no
// more than the header bound beyond it.
func TestRunBytesPricesCheckpointImage(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := buildLayout(t, g, 4)
	for _, async := range []bool{false, true} {
		for _, prog := range []func() core.Program{
			func() core.Program { return &algorithms.BFS{Source: 0} },
			func() core.Program { return &algorithms.PageRankDelta{} }, // keeps an aux array
		} {
			p := prog()
			if _, mono := p.(core.Monotonic); async && !mono {
				continue
			}
			dir := t.TempDir()
			opts := core.Options{Async: async, MaxIterations: 3}
			off := core.RunBytes(&l.Meta, opts, p)
			opts.Checkpoint = core.CheckpointOptions{Every: 1, Dir: dir}
			price := core.RunBytes(&l.Meta, opts, p) - off
			if _, err := core.Run(l, p, opts); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(checkpoint.Path(dir))
			if err != nil {
				t.Fatal(err)
			}
			if price < fi.Size() || price > fi.Size()+256 {
				t.Errorf("%s async=%t: RunBytes prices the checkpoint image at %d bytes, the run wrote %d", p.Name(), async, price, fi.Size())
			}
		}
	}
}
