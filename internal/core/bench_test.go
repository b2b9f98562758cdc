package core_test

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func benchLayout(b *testing.B, g *graph.Graph, p int, opts ...partition.BuildOption) *partition.Layout {
	b.Helper()
	dev, err := storage.OpenDevice(b.TempDir(), storage.ScaledHDD)
	if err != nil {
		b.Fatal(err)
	}
	l, err := partition.Build(dev, g, p, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkReferencePageRank(b *testing.B) {
	g, err := gen.RMAT(13, 12, gen.Graph500, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunReference(g, &algorithms.PageRank{Iterations: 5}, 0)
	}
}

// BenchmarkEnginePageRank times whole PageRank runs. "per-run-buffer" reads
// through the default per-run buffer. "shared-cache" is shaped like bench/'s
// pr_fit: an R-MAT graph cut eight ways and delta-coded, ten iterations, and a
// raw buffer.Shared of twice the decoded graph warmed by one untimed run, so
// every block is a shared hit and an op is the engine's scatter, apply and
// scheduling; it reports their compute, the apply's share of it (with the
// terms an FCIU first pass fills in the apply) and the scheduler's overhead
// per op.
func BenchmarkEnginePageRank(b *testing.B) {
	b.Run("per-run-buffer", func(b *testing.B) {
		g, err := gen.RMAT(12, 12, gen.Graph500, 1)
		if err != nil {
			b.Fatal(err)
		}
		l := benchLayout(b, g, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(l, &algorithms.PageRank{Iterations: 5}, core.Options{DefaultBuffer: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-cache", func(b *testing.B) {
		g, err := gen.RMAT(15, 16, gen.Graph500, 1)
		if err != nil {
			b.Fatal(err)
		}
		l := benchLayout(b, g, 8, partition.WithCodec(graph.CodecDelta))
		opts := core.Options{Threads: 1, SharedBlocks: buffer.NewShared(2 * l.Meta.EdgeBytesTotal())}
		run := func() *core.Result {
			res, err := core.Run(l, &algorithms.PageRank{Iterations: 10}, opts)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		run() // warms the cache
		var compute, apply, sched time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := run()
			if res.SharedMisses != 0 {
				b.Fatalf("%d shared misses on a warm cache", res.SharedMisses)
			}
			compute += res.ComputeTime
			apply += res.ApplyTime
			sched += res.SchedulerOverhead
		}
		b.ReportMetric(float64(compute.Microseconds())/1000/float64(b.N), "compute-ms/op")
		b.ReportMetric(float64(apply.Microseconds())/1000/float64(b.N), "apply-ms/op")
		b.ReportMetric(float64(sched.Microseconds())/float64(b.N), "sched-us/op")
	})
	// The pr_ooc shape: a per-run buffer of 1/8 of the decoded graph, so every
	// pass re-reads, verifies and decodes most cells on the prefetch workers
	// while FCIU's helper scatters beside the engine goroutine.
	b.Run("per-run-buffer-ooc", func(b *testing.B) {
		g, err := gen.RMAT(15, 16, gen.Graph500, 1)
		if err != nil {
			b.Fatal(err)
		}
		l := benchLayout(b, g, 8, partition.WithCodec(graph.CodecDelta))
		opts := core.Options{BufferBytes: l.Meta.EdgeBytesTotal() / 8}
		var compute time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(l, &algorithms.PageRank{Iterations: 10}, opts)
			if err != nil {
				b.Fatal(err)
			}
			compute += res.ComputeTime
		}
		b.ReportMetric(float64(compute.Microseconds())/1000/float64(b.N), "compute-ms/op")
	})
}

func BenchmarkEngineBFS(b *testing.B) {
	g, err := gen.RMAT(12, 12, gen.Graph500, 2)
	if err != nil {
		b.Fatal(err)
	}
	l := benchLayout(b, g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(l, &algorithms.BFS{Source: 0}, core.Options{DefaultBuffer: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// scatterCell is one sub-block of a benchmark graph: its edges, in the
// layout's order (by source, then destination), and its source interval.
type scatterCell struct {
	edges        []graph.Edge
	srcLo, srcHi int
}

// cutCells returns sub-blocks (i, j) of g cut p ways, for every i in rows.
func cutCells(g *graph.Graph, p, j int, rows ...int) (cells []scatterCell, lo, hi int) {
	n := g.NumVertices
	per := (n + p - 1) / p
	lo, hi = j*per, min(n, (j+1)*per)
	for _, i := range rows {
		c := scatterCell{srcLo: i * per, srcHi: min(n, (i+1)*per)}
		for _, ed := range g.Edges {
			if s, d := int(ed.Src), int(ed.Dst); s >= c.srcLo && s < c.srcHi && d >= lo && d < hi {
				c.edges = append(c.edges, ed)
			}
		}
		slices.SortFunc(c.edges, func(x, y graph.Edge) int {
			return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst))
		})
		cells = append(cells, c)
	}
	return cells, lo, hi
}

// BenchmarkScatterKernel times Engine.scatter alone, per scatter loop: one op
// scatters the four sub-blocks of one destination column of the pr_fit graph
// cut four ways, with every source active or one in a hundred — and, for the
// sum loop, cell (1, 2) of the same graph cut eight ways, with every source
// active or one in four. The sum loop's terms are filled before the clock
// starts, as a pass fills them once for all its cells. A dense filter holds
// each cell's whole source row, so the sum loop runs without its filter test;
// "dense-always-active" scatters as a pass that applies every vertex (PageRank
// under BSP), without the touched bit per edge either. It reports ns per edge
// examined and fails if the steady state allocates.
func BenchmarkScatterKernel(b *testing.B) {
	rmat, err := gen.RMAT(17, 16, gen.Graph500, 7)
	if err != nil {
		b.Fatal(err)
	}
	g := gen.Weighted(rmat, 9, 8)
	n := g.NumVertices
	degrees := g.OutDegrees()
	vals := make([]float64, n)
	for v := range vals {
		vals[v] = float64(v%97) + 1
	}
	every := func(k int) *bitset.ActiveSet {
		set := bitset.NewActiveSet(n)
		for v := 0; v < n; v += k {
			set.Activate(v)
		}
		return set
	}
	type filter struct {
		name       string
		set        *bitset.ActiveSet
		applyEvery bool
	}
	dense, sparse := filter{"dense", every(1), false}, filter{"active-1pct", every(100), false}
	column, lo, hi := cutCells(g, 4, 1, 0, 1, 2, 3)
	cell, cellLo, cellHi := cutCells(g, 8, 2, 1)
	cases := []struct {
		name    string
		prog    core.Program
		cells   []scatterCell
		lo, hi  int
		filters []filter
	}{
		{"generic", hideKernel(&algorithms.SSSP{}), column, lo, hi, []filter{dense, sparse}},
		{"sum-over-out-degree", &algorithms.PageRank{}, column, lo, hi, []filter{dense, {"dense-always-active", every(1), true}, sparse}},
		{"sum-over-out-degree/cell-p8", &algorithms.PageRank{}, cell, cellLo, cellHi, []filter{dense, {"active-quarter", every(4), false}}},
		{"min-copy", &algorithms.ConnectedComponents{}, column, lo, hi, []filter{dense, sparse}},
		{"min-plus-one", &algorithms.BFS{}, column, lo, hi, []filter{dense, sparse}},
		{"min-plus-weight", &algorithms.SSSP{}, column, lo, hi, []filter{dense, sparse}},
	}
	for _, c := range cases {
		edges := 0
		for _, cl := range c.cells {
			edges += len(cl.edges)
		}
		for _, f := range c.filters {
			b.Run(c.name+"/"+f.name, func(b *testing.B) {
				s, err := core.NewScatterer(c.prog, degrees)
				if err != nil {
					b.Fatal(err)
				}
				if f.applyEvery {
					s.ApplyEvery()
				}
				s.Fill(vals)
				acc := make([]float64, n)
				for v := range acc {
					acc[v] = c.prog.Identity()
				}
				touched := bitset.NewActiveSet(n)
				op := func() {
					for _, cl := range c.cells {
						s.Scatter(cl.edges, vals, f.set, acc, touched, cl.srcLo, cl.srcHi, c.lo, c.hi)
					}
					touched.ClearRange(c.lo, c.hi)
				}
				if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
					b.Fatalf("%v allocations per op; the scatter path must not allocate", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
			})
		}
	}
}

// BenchmarkEnginePrefetch measures the wall-clock effect of the I/O
// pipeline: identical runs with prefetching off and on, with the measured
// stall and overlap reported per run. The overlap metric is the fetch time
// hidden behind scatter/apply work — the quantity the pipeline exists to
// create.
//
// The "hot" tier reads from the page cache, so fetches are CPU-bound
// decode work and the pipeline only wins when spare cores exist. The
// "cold" tier emulates out-of-core read latency by sleeping in the fault
// injector before each block read — fetches then genuinely block, and the
// pipeline hides them behind scatter/apply even on one core.
func BenchmarkEnginePrefetch(b *testing.B) {
	g, err := gen.RMAT(12, 16, gen.Graph500, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range []struct {
		name    string
		latency time.Duration
	}{
		{"hot", 0},
		{"cold", 2 * time.Millisecond},
	} {
		for _, cfg := range []struct {
			name string
			opts core.Options
		}{
			{"sync", core.Options{PrefetchDepth: -1}},
			{"pipelined", core.Options{}},
		} {
			b.Run(tier.name+"/"+cfg.name, func(b *testing.B) {
				l := benchLayout(b, g, 6)
				if tier.latency > 0 {
					l.Dev.SetFaultInjector(func(op, name string) error {
						if op == "read" && strings.HasPrefix(name, "blocks/") && strings.HasSuffix(name, ".edges") {
							time.Sleep(tier.latency)
						}
						return nil
					})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Run(l, &algorithms.PageRank{Iterations: 3}, cfg.opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.WallTime.Microseconds())/1000, "wall-ms")
					b.ReportMetric(float64(res.Pipeline.Overlap.Microseconds())/1000, "overlap-ms")
					b.ReportMetric(float64(res.Pipeline.Stall.Microseconds())/1000, "stall-ms")
				}
			})
		}
	}
}

// BenchmarkEngineCompressed compares raw and delta sub-block codecs on a
// cold device: the fault injector sleeps in proportion to each block file's
// on-disk size, emulating a throughput-limited disk, so moving fewer bytes
// directly shortens the run. Decode runs on the pipeline's fetch workers,
// overlapped with compute.
func BenchmarkEngineCompressed(b *testing.B) {
	g, err := gen.RMAT(12, 16, gen.Graph500, 9)
	if err != nil {
		b.Fatal(err)
	}
	// Emulated cold-read throughput for the sleep-per-block injector.
	const coldBytesPerSecond = 200 << 20

	for _, codec := range []graph.Codec{graph.CodecRaw, graph.CodecDelta} {
		b.Run(codec.String(), func(b *testing.B) {
			dev, err := storage.OpenDevice(b.TempDir(), storage.ScaledHDD)
			if err != nil {
				b.Fatal(err)
			}
			l, err := partition.Build(dev, g, 6, partition.WithCodec(codec))
			if err != nil {
				b.Fatal(err)
			}
			dev.SetFaultInjector(func(op, name string) error {
				if op == "read" && strings.HasPrefix(name, "blocks/") && strings.HasSuffix(name, ".edges") {
					if size, err := dev.Size(name); err == nil {
						time.Sleep(time.Duration(size) * time.Second / coldBytesPerSecond)
					}
				}
				return nil
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(l, &algorithms.PageRank{Iterations: 3}, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.WallTime.Microseconds())/1000, "wall-ms")
				b.ReportMetric(float64(res.IO.ReadBytes())/1024, "read-KiB")
				b.ReportMetric(float64(res.DecodeTime.Microseconds())/1000, "decode-ms")
				b.ReportMetric(res.CompressRatio, "ratio")
			}
		})
	}
}

// BenchmarkEngineAsync compares asynchronous and BSP execution on the
// workloads the scheduler targets: a sparse-frontier traversal (SSSP, where
// async touches only live rows while BSP sweeps the grid), PageRank-Delta
// run to a residual epsilon (where async retires mass richest-row-first), and
// SSSP over a weighted row-major lattice, delta-coded — the shape of bench/'s
// sssp_async, whose wavefront returns to the same few diagonal blocks step
// after step — with and without the per-run buffer that keeps those blocks
// (as payloads, here) — and at bench/'s own size, a weighted 128×128 lattice
// under the default buffer, the sssp_bsp and sssp_async cases — and cc and
// SSSP over a weighted R-MAT (scale 14, edge factor 16), delta-coded under the
// default buffer, the shape of bench/'s serve_mixed jobs, whose dense drains
// stream rounds until their frontier narrows. Every async case has its BSP
// comparator. Device bytes, block activations and the buffer's hit ratio are
// reported alongside wall time — bytes are the figure the fig-async experiment
// asserts on, wall time the one bench/ does — and, under async, steps, drain
// rounds and value-order pops per run.
func BenchmarkEngineAsync(b *testing.B) {
	sparse := gen.Weighted(gen.Chain(4096), 7, 11)
	rmat, err := gen.RMAT(12, 12, gen.Graph500, 4)
	if err != nil {
		b.Fatal(err)
	}
	lattice := gen.Weighted(gen.Grid(96), 16, 3)
	benchLattice := gen.Weighted(gen.Grid(128), 16, 3)
	bigRMAT, err := gen.RMAT(14, 16, gen.Graph500, 4)
	if err != nil {
		b.Fatal(err)
	}
	denseRMAT := gen.Weighted(bigRMAT, 16, 3)
	sssp := func() core.Program { return &algorithms.SSSP{Source: 0} }
	cc := func() core.Program { return &algorithms.ConnectedComponents{} }
	prd := func() core.Program { return &algorithms.PageRankDelta{Iterations: 200} }
	cases := []struct {
		name  string
		g     *graph.Graph
		codec graph.Codec
		prog  func() core.Program
		opts  core.Options
	}{
		{"sssp-sparse/bsp", sparse, graph.CodecRaw, sssp, core.Options{DefaultBuffer: true}},
		{"sssp-sparse/async", sparse, graph.CodecRaw, sssp, core.Options{Async: true, DefaultBuffer: true}},
		{"prd-epsilon/bsp", rmat, graph.CodecRaw, prd, core.Options{DefaultBuffer: true}},
		{"prd-epsilon/async", rmat, graph.CodecRaw, prd, core.Options{Async: true, AsyncEpsilon: 1e-6, DefaultBuffer: true}},
		{"sssp-lattice/bsp", lattice, graph.CodecDelta, sssp, core.Options{DefaultBuffer: true}},
		{"sssp-lattice/async-nobuffer", lattice, graph.CodecDelta, sssp, core.Options{Async: true}},
		{"sssp-lattice/async", lattice, graph.CodecDelta, sssp, core.Options{Async: true, DefaultBuffer: true}},
		{"sssp_bsp", benchLattice, graph.CodecDelta, sssp, core.Options{DefaultBuffer: true}},
		{"sssp_async", benchLattice, graph.CodecDelta, sssp, core.Options{Async: true, DefaultBuffer: true}},
		{"cc-rmat/bsp", denseRMAT, graph.CodecDelta, cc, core.Options{DefaultBuffer: true}},
		{"cc-rmat/async", denseRMAT, graph.CodecDelta, cc, core.Options{Async: true, DefaultBuffer: true}},
		{"sssp-rmat/bsp", denseRMAT, graph.CodecDelta, sssp, core.Options{DefaultBuffer: true}},
		{"sssp-rmat/async", denseRMAT, graph.CodecDelta, sssp, core.Options{Async: true, DefaultBuffer: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			l := benchLayout(b, c.g, 8, partition.WithCodec(c.codec))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(l, c.prog(), c.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.IO.TotalBytes())/1024, "device-KiB")
				b.ReportMetric(float64(res.WallTime.Microseconds())/1000, "wall-ms")
				if res.Async.Enabled {
					b.ReportMetric(float64(res.Async.Steps), "steps")
					b.ReportMetric(float64(res.Async.Rounds), "rounds")
					b.ReportMetric(float64(res.Async.Popped), "pops")
					b.ReportMetric(float64(res.Async.BlocksScheduled), "blocks")
					if asked := res.Buffer.Hits + res.Buffer.Misses; asked > 0 {
						b.ReportMetric(float64(res.Buffer.Hits)/float64(asked), "hit-ratio")
					}
				} else {
					b.ReportMetric(float64(res.Iterations), "iters")
				}
			}
		})
	}
}
