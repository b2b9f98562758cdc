package core_test

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// decodedRoute returns opts with a shared cache of no capacity in front of the
// full loads: it caches nothing, so every load still reads the device exactly
// as without it, but loads through a shared cache are always decoded — the
// way to run the decoded route on a layout that would otherwise get run views.
func decodedRoute(opts core.Options) core.Options {
	opts.SharedBlocks = buffer.NewShared(0)
	return opts
}

// cachedRoute is decodedRoute through a compressed shared cache of no
// capacity: the loads are the same device reads, decoded on the worker, and a
// payload the per-run buffer keeps is the cache's entry, not edges encoded on
// the worker.
func cachedRoute(opts core.Options) core.Options {
	opts.SharedBlocks = buffer.NewSharedCompressed(0)
	return opts
}

func sameOutputBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: vertex %d = %v, want %v", what, v, got[v], want[v])
		}
	}
}

// TestRunViewRouteMatchesDecodedRoute runs every program both ways over one
// delta layout — sparse full passes through run views (with released views
// and pooled slices poisoned), and everything decoded — and holds the view run
// to the decoded one: same outputs by bits, same iterations through the same
// paths, the same device traffic and pipeline deliveries in every iteration,
// the same buffer outcomes. The last holds by construction: the buffer keeps
// payloads on both routes (the resident form follows the codec and the
// schedule, not the route), charged their on-disk bytes at the same estimated
// priority. There are two decoded routes, one per form of shared cache, and
// so one per other source of a kept payload: the "encoded" oracle's payloads
// are its edges encoded on the worker, the "cached" one's are a compressed
// cache's entries, and both are byte for byte what the device returned. A raw layout of the same graph gives
// the same outputs without a single view. Views appear on exactly the passes
// that should have them: full passes over a frontier of at most one vertex in
// SparseViewDensity — second FCIU halves included, since their cells are
// secondaries served as views of the resident (or just-read) payloads, though
// a frontier confined to interval 0 leaves them no live secondary to view —
// never on on-demand iterations or PageRank.
func TestRunViewRouteMatchesDecodedRoute(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 23)
	if err != nil {
		t.Fatal(err)
	}
	lattice := gen.Weighted(gen.Grid(48), 16, 3)
	programs := []struct {
		name   string
		g      *graph.Graph
		prog   func() core.Program
		sparse bool // forced full, some pass is sure to see a narrow frontier
	}{
		{"sssp-lattice", lattice, func() core.Program { return &algorithms.SSSP{Source: 0} }, true},
		{"bfs-rmat", rmat, func() core.Program { return &algorithms.BFS{Source: 0} }, true},
		{"cc-rmat", rmat, func() core.Program { return &algorithms.ConnectedComponents{} }, false},
		{"cc-lattice", lattice, func() core.Program { return &algorithms.ConnectedComponents{} }, true},
		{"prdelta-rmat", rmat, func() core.Program { return &algorithms.PageRankDelta{Iterations: 30} }, false},
		{"pagerank-rmat", rmat, func() core.Program { return &algorithms.PageRank{Iterations: 4} }, false},
	}
	for _, pc := range programs {
		const p = 4
		delta := codecLayout(t, pc.g, p, graph.CodecDelta)
		raw := codecLayout(t, pc.g, p, graph.CodecRaw)
		n := pc.g.NumVertices
		for _, forced := range []bool{false, true} {
			for _, oracle := range []struct {
				name  string
				route func(core.Options) core.Options
			}{{"encoded", decodedRoute}, {"cached", cachedRoute}} {
				for _, buffered := range []bool{false, true} {
					for _, depth := range []int{0, -1} {
						if depth == -1 && (oracle.name != "encoded" || !forced) {
							continue // synchronous loads: one corner is enough
						}
						opts := core.Options{DefaultBuffer: buffered, PrefetchDepth: depth, Threads: 1}
						if forced {
							opts.ForceModel = core.ForceFull
						}
						name := fmt.Sprintf("%s/forced=%t/oracle=%s/buffer=%t/depth=%d", pc.name, forced, oracle.name, buffered, depth)
						t.Run(name, func(t *testing.T) {
							got, views, err := core.RunCountingViews(delta, pc.prog(), opts, true)
							if err != nil {
								t.Fatal(err)
							}
							want, err := core.Run(delta, pc.prog(), oracle.route(opts))
							if err != nil {
								t.Fatal(err)
							}
							sameOutputBits(t, "view route vs decoded route", got.Outputs, want.Outputs)
							if got.Iterations != want.Iterations || got.Converged != want.Converged {
								t.Fatalf("run shape: %d iterations converged=%t, decoded route %d/%t", got.Iterations, got.Converged, want.Iterations, want.Converged)
							}
							if got.Buffer != want.Buffer {
								t.Errorf("buffer stats %+v, decoded route %+v", got.Buffer, want.Buffer)
							}
							total := int64(0)
							for k, st := range got.IterStats {
								ref := want.IterStats[k]
								if st.Path != ref.Path || st.Active != ref.Active {
									t.Fatalf("iteration %d: %s over %d active, decoded route %s over %d", k, st.Path, st.Active, ref.Path, ref.Active)
								}
								if st.IO != ref.IO {
									t.Errorf("iteration %d (%s): device traffic %+v, decoded route %+v", k, st.Path, st.IO, ref.IO)
								}
								if a, b := st.Pipeline, ref.Pipeline; a.Blocks != b.Blocks || a.Bytes != b.Bytes || a.Skipped != b.Skipped || a.SkippedBytes != b.SkippedBytes || a.Fallbacks != b.Fallbacks {
									t.Errorf("iteration %d (%s): pipeline %+v, decoded route %+v", k, st.Path, st.Pipeline, ref.Pipeline)
								}
								fullPass := st.Path == "fciu-1" || st.Path == "full-single"
								sparse := st.Active*core.SparseViewDensity <= n
								switch {
								case !((fullPass || st.Path == "fciu-2") && sparse) && views[k] != 0:
									t.Errorf("iteration %d (%s, %d of %d active): %d view blocks, want none", k, st.Path, st.Active, n, views[k])
								case fullPass && sparse && st.Active > 0 && views[k] == 0:
									t.Errorf("iteration %d (%s, %d of %d active): no view blocks on a sparse full pass", k, st.Path, st.Active, n)
								}
								total += views[k]
							}
							if forced && pc.sparse && total == 0 {
								t.Errorf("no view blocks over the whole run")
							}
							if got.DecodeTime <= 0 {
								t.Errorf("no decode time reported")
							}

							plain, rawViews, err := core.RunCountingViews(raw, pc.prog(), opts, true)
							if err != nil {
								t.Fatal(err)
							}
							sameOutputBits(t, "delta layout vs raw layout", got.Outputs, plain.Outputs)
							for k, v := range rawViews {
								if v != 0 {
									t.Fatalf("raw layout: %d view blocks in iteration %d", v, k)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestViewBlockFaultDegradesLikeAnyOther: a transient fault on a prefetched
// view block degrades the rest of the pass to synchronous loads — view blocks
// still — counted once each, and changes no output.
func TestViewBlockFaultDegradesLikeAnyOther(t *testing.T) {
	opts := core.Options{ForceModel: core.ForceFull, DisableCrossIteration: true}
	clean, _, err := core.RunCountingViews(faultLayoutCodec(t, graph.CodecDelta), &algorithms.BFS{Source: 0}, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, failIdx := range []int{0, 2} {
		l := faultLayoutCodec(t, graph.CodecDelta)
		// BFS opens on a one-vertex frontier: the first pass, the one the
		// injector hits, reads the source's row only — the other rows hold no
		// active vertex, so their cells are skipped, not viewed (before
		// skipping was unconditional this pass took all 16; row 0 has 4, hence
		// the second fault at request 2, not 3) — and takes every cell of that
		// row as a run view.
		var cells [][2]int
		for _, c := range nonEmptyColumnMajor(&l.Meta) {
			if c[0] == 0 {
				cells = append(cells, c)
			}
		}
		if len(cells) <= failIdx+1 {
			t.Fatalf("layout too sparse: %d non-empty cells in row 0", len(cells))
		}
		failOnce(l, "read", partition.SubBlockName(cells[failIdx][0], cells[failIdx][1]))
		res, views, err := core.RunCountingViews(l, &algorithms.BFS{Source: 0}, opts, true)
		if err != nil {
			t.Fatalf("fault at request %d: degraded run failed: %v", failIdx, err)
		}
		// (Blocks the pipeline had fetched ahead of the fault are fetched
		// again, so the source may have built more views than there are cells.)
		if views[0] < int64(len(cells)) {
			t.Fatalf("fault at request %d: %d view blocks in the first pass, want every one of row 0's %d cells", failIdx, views[0], len(cells))
		}
		if want := len(cells) - failIdx; res.Pipeline.Fallbacks != want {
			t.Fatalf("fault at request %d: Fallbacks = %d, want exactly %d", failIdx, res.Pipeline.Fallbacks, want)
		}
		sameOutputBits(t, "degraded run vs clean run", res.Outputs, clean.Outputs)
	}
}

// TestAsyncViewRouteMatchesDecodedRoute holds the async row step on a delta
// layout — a fetch plan over a frozen frontier of at most one vertex in
// RowViewDensity takes its cells as run views, its stream loaded inline; a
// denser plan decodes them on the prefetch workers — to the decoded route:
// same outputs by bits, the same steps through the same paths, the same device
// traffic and stream deliveries in every step, the same buffer outcomes. A
// step opens up to two plans, its drain's diagonal and its push across the
// row, over different frontiers. Every plan views every cell it is handed or
// none, and it views
// exactly when its frozen frontier is that sparse: plans denser than
// SparseViewDensity included, and never a plan that freezes a whole row, as a
// lattice's push does once its drain has swept the wavefront across the whole
// interval. SSSP over weighted R-MAT views plans in that band.
func TestAsyncViewRouteMatchesDecodedRoute(t *testing.T) {
	rmat, err := gen.RMAT(9, 8, gen.Graph500, 23)
	if err != nil {
		t.Fatal(err)
	}
	lattice := gen.Weighted(gen.Grid(48), 16, 3)
	for _, pc := range []struct {
		name  string
		g     *graph.Graph
		prog  func() core.Program
		band  bool // some plan viewed is denser than SparseViewDensity
		dense bool // some plan freezes a whole row
	}{
		{"sssp-lattice", lattice, func() core.Program { return &algorithms.SSSP{Source: 0} }, false, true},
		{"bfs-lattice", lattice, func() core.Program { return &algorithms.BFS{Source: 0} }, false, true},
		{"sssp-rmat", gen.Weighted(rmat, 16, 3), func() core.Program { return &algorithms.SSSP{Source: 0} }, true, false},
		{"cc-rmat", rmat, func() core.Program { return &algorithms.ConnectedComponents{} }, false, true},
		// The seek-heavy profile's R-MAT.
		{"bfs-rmat-seeky", nil, func() core.Program { return &algorithms.BFS{Source: 0} }, false, false},
	} {
		var delta *partition.Layout
		if pc.g != nil {
			delta = codecLayout(t, pc.g, 4, graph.CodecDelta)
		} else {
			delta = chaosLayout(t, graph.CodecDelta, 5)
		}
		band, dense := false, false
		for _, oracle := range []struct {
			name  string
			route func(core.Options) core.Options
		}{{"encoded", decodedRoute}, {"cached", cachedRoute}} {
			for _, buffered := range []bool{false, true} {
				opts := core.Options{Async: true, DefaultBuffer: buffered}
				t.Run(fmt.Sprintf("%s/oracle=%s/buffer=%t", pc.name, oracle.name, buffered), func(t *testing.T) {
					got, views, plans, err := core.RunCountingPlanViews(delta, pc.prog(), opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.Run(delta, pc.prog(), oracle.route(opts))
					if err != nil {
						t.Fatal(err)
					}
					sameOutputBits(t, "view route vs decoded route", got.Outputs, want.Outputs)
					if got.Iterations != want.Iterations || got.Converged != want.Converged {
						t.Fatalf("run shape: %d steps converged=%t, decoded route %d/%t", got.Iterations, got.Converged, want.Iterations, want.Converged)
					}
					if got.Buffer != want.Buffer {
						t.Errorf("buffer stats %+v, decoded route %+v", got.Buffer, want.Buffer)
					}
					for k, st := range got.IterStats {
						ref := want.IterStats[k]
						if st.Path != ref.Path || st.Active != ref.Active || st.Blocks != ref.Blocks {
							t.Fatalf("step %d: %s over %d active, %d blocks; decoded route %s over %d, %d blocks", k, st.Path, st.Active, st.Blocks, ref.Path, ref.Active, ref.Blocks)
						}
						if st.IO != ref.IO {
							t.Errorf("step %d (%s): device traffic %+v, decoded route %+v", k, st.Path, st.IO, ref.IO)
						}
						if a, b := st.Pipeline, ref.Pipeline; a.Blocks != b.Blocks || a.Bytes != b.Bytes || a.Skipped != b.Skipped || a.SkippedBytes != b.SkippedBytes || a.Fallbacks != b.Fallbacks {
							t.Errorf("step %d (%s): pipeline %+v, decoded route %+v", k, st.Path, st.Pipeline, ref.Pipeline)
						}
						if views[k] > int64(st.Blocks) {
							t.Errorf("step %d (%s): %d view blocks of %d scattered", k, st.Path, views[k], st.Blocks)
						}
						// A listed stream of views loads inline, every block of it.
						if inline := st.Pipeline.Inline; (views[k] == 0 && inline != 0) || inline > st.Pipeline.Blocks || ref.Pipeline.Inline != 0 {
							t.Errorf("step %d (%s, %d views): %d of %d blocks inline, decoded route %d", k, st.Path, views[k], inline, st.Pipeline.Blocks, ref.Pipeline.Inline)
						}
						allViewed := true
						for _, p := range plans[k] {
							viewed := p.Views > 0
							allViewed = allViewed && viewed
							if viewed && p.Views != int64(len(p.Cells)) {
								t.Errorf("step %d: a plan viewed %d of its %d cells %v", k, p.Views, len(p.Cells), p.Cells)
							}
							if viewed != (p.Frozen*core.RowViewDensity <= p.Span) {
								t.Errorf("step %d: a plan over %v freezes %d of %d vertices, viewed %t", k, p.Cells, p.Frozen, p.Span, viewed)
							} else {
								band = band || (viewed && p.Frozen*core.SparseViewDensity > p.Span)
								dense = dense || p.Frozen == p.Span
							}
						}
						if allViewed && st.Pipeline.Inline != st.Pipeline.Blocks {
							t.Errorf("step %d: every plan viewed, yet %d of %d blocks inline", k, st.Pipeline.Inline, st.Pipeline.Blocks)
						}
					}
				})
			}
		}
		if band != pc.band || dense != pc.dense {
			t.Errorf("%s: a plan viewed over a frontier denser than 1 in %d: %t, want %t; a plan over a whole row: %t, want %t",
				pc.name, core.SparseViewDensity, band, pc.band, dense, pc.dense)
		}
	}
}

// TestAsyncViewBlockFaultDegrades: a transient fault on a listed cell of an
// async row — a stream of views, loaded inline — degrades the rest of that
// row's list to synchronous loads, views still, each counted once, and
// changes no output bit. The fault is armed for the first streamed step whose
// push views three cells or more, so it strikes that step's read and no
// earlier one.
func TestAsyncViewBlockFaultDegrades(t *testing.T) {
	// Unbuffered, a push lists every non-empty cell of its row but the
	// diagonal, which the drain took alone (a list of one is not listed).
	prog := func() core.Program { return &algorithms.BFS{Source: 0} }
	clean, cleanViews, plans, err := core.RunCountingPlanViews(faultLayoutCodec(t, graph.CodecDelta), prog(), core.Options{Async: true})
	if err != nil {
		t.Fatal(err)
	}
	step := -1
	var cells [][2]int
	for k, st := range clean.IterStats {
		for _, p := range plans[k] {
			if st.Path == "async" && len(p.Cells) >= 3 && p.Views == int64(len(p.Cells)) && step < 0 {
				step, cells = k, p.Cells
			}
		}
	}
	if step < 0 {
		t.Fatal("clean run: no streamed step viewed a push of three listed cells or more")
	}
	for _, failIdx := range []int{0, 2} {
		l := faultLayoutCodec(t, graph.CodecDelta)
		if len(cells) != clean.IterStats[step].Pipeline.Inline {
			t.Fatalf("step %d lists %d cells, its push was handed %d", step, clean.IterStats[step].Pipeline.Inline, len(cells))
		}
		target := partition.SubBlockName(cells[failIdx][0], cells[failIdx][1])
		var armed, tripped atomic.Bool
		armed.Store(step == 0)
		l.Dev.SetFaultInjector(func(op, name string) error {
			if op == "read" && name == target && armed.Load() && tripped.CompareAndSwap(false, true) {
				return storage.Transient(errors.New("transient sector fault"))
			}
			return nil
		})
		opts := core.Options{Async: true, OnIteration: func(st core.IterStat) { armed.Store(st.Index+1 == step) }}
		res, views, err := core.RunCountingViews(l, prog(), opts, true)
		if err != nil {
			t.Fatalf("fault at request %d: degraded run failed: %v", failIdx, err)
		}
		gone := len(cells) - failIdx
		if !tripped.Load() || res.Pipeline.Fallbacks != gone {
			t.Fatalf("fault at request %d of step %d: tripped %t, Fallbacks = %d, want exactly %d", failIdx, step, tripped.Load(), res.Pipeline.Fallbacks, gone)
		}
		if pl, c := res.Pipeline, clean.Pipeline; pl.Blocks != c.Blocks-gone || pl.Inline != c.Inline-gone {
			t.Fatalf("fault at request %d: %d blocks listed, %d inline; clean run %d and %d", failIdx, pl.Blocks, pl.Inline, c.Blocks, c.Inline)
		}
		for k, st := range res.IterStats {
			if views[k] != cleanViews[k] {
				t.Fatalf("fault at request %d: step %d took %d view blocks of %d, clean run %d", failIdx, k, views[k], st.Blocks, cleanViews[k])
			}
		}
		sameOutputBits(t, "degraded run vs clean run", res.Outputs, clean.Outputs)
	}
}
