package core_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// The paper's comparison systems, HUS-Graph and Lumos, run under the same
// loop as GraphSD, picked by the layout's manifest (husgraph.go, lumos.go).

// buildSystem preprocesses g for the system-table row called name.
func buildSystem(t *testing.T, name string, g *graph.Graph, p int, prof storage.Profile) *partition.Layout {
	t.Helper()
	sys, err := core.SystemByName(name)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := storage.OpenDevice(t.TempDir(), prof)
	if err != nil {
		t.Fatal(err)
	}
	l, err := sys.Build(dev, g, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var baselines = []string{"husgraph", "lumos"}

// TestBaselinesMatchReference: both baseline engines are BSP-exact.
func TestBaselinesMatchReference(t *testing.T) {
	rmat, err := gen.RMAT(7, 6, gen.Graph500, 13)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"chain": gen.Chain(30),
		"rmat":  rmat,
	}
	progs := map[string]func() core.Program{
		"pagerank": func() core.Program { return &algorithms.PageRank{Iterations: 5} },
		"prdelta":  func() core.Program { return &algorithms.PageRankDelta{Iterations: 20} },
		"cc":       func() core.Program { return &algorithms.ConnectedComponents{} },
		"bfs":      func() core.Program { return &algorithms.BFS{Source: 0} },
	}
	for gname, g := range graphs {
		for pname, mk := range progs {
			want, _ := core.RunReference(g, mk(), 0)
			for _, sname := range baselines {
				for _, p := range []int{1, 3} {
					l := buildSystem(t, sname, g, p, storage.HDD)
					res, err := core.Run(l, mk(), core.Options{})
					if err != nil {
						t.Fatalf("%s/%s/%s/p%d: %v", sname, gname, pname, p, err)
					}
					compareOutputs(t, fmt.Sprintf("%s/%s/%s/p%d", sname, gname, pname, p), res.Outputs, want, 1e-9)
				}
			}
		}
	}
}

func TestBaselineSSSP(t *testing.T) {
	g := gen.Weighted(gen.Chain(25), 4, 3)
	want, _ := core.RunReference(g, &algorithms.SSSP{Source: 0}, 0)
	for _, name := range baselines {
		l := buildSystem(t, name, g, 2, storage.HDD)
		res, err := core.Run(l, &algorithms.SSSP{Source: 0}, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareOutputs(t, name, res.Outputs, want, 1e-9)
	}
}

func TestLayoutSystemChecks(t *testing.T) {
	lum := buildSystem(t, "lumos", gen.Chain(10), 2, storage.HDD)
	if _, err := core.Run(lum, &algorithms.SSSP{Source: 0}, core.Options{}); err == nil {
		t.Error("weighted program accepted on unweighted lumos layout")
	}
}

// TestSystemIOOrdering verifies the headline comparative shapes of
// Figures 5 and 7 at test scale:
//
//   - shrinking-frontier algorithms (BFS stands in for CC/SSSP/PR-D):
//     GraphSD < HUS-Graph (cross-iteration savings) and
//     GraphSD < Lumos (inactive-edge savings);
//   - Lumos reads more than HUS-Graph when frontiers are small.
func TestSystemIOOrdering(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.Graph500, 17)
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]int64{}
	for _, sys := range core.Systems() {
		l := buildSystem(t, sys.Name, g, 4, storage.ScaledHDD)
		res, err := core.Run(l, &algorithms.BFS{Source: 0}, core.Options{DefaultBuffer: true})
		if err != nil {
			t.Fatal(err)
		}
		read[sys.Name] = res.IO.ReadBytes()
	}
	gsdB, husB, lumB := read["graphsd"], read["husgraph"], read["lumos"]
	if gsdB >= husB {
		t.Errorf("GraphSD read %d >= HUS-Graph %d", gsdB, husB)
	}
	if gsdB >= lumB {
		t.Errorf("GraphSD read %d >= Lumos %d", gsdB, lumB)
	}
	if lumB <= husB {
		t.Errorf("Lumos read %d <= HUS-Graph %d on a small frontier", lumB, husB)
	}
}

// TestHUSGraphRejectsHostileRowIndex: the on-demand path subscripts and sizes
// its reads by the row index, so a well-formed index of the wrong shape has to
// fail at load. A delta of 2⁵⁵ used to die in makeslice, a one-entry index on
// idx.Rec[v-lo+1]; both are errors naming the file.
func TestHUSGraphRejectsHostileRowIndex(t *testing.T) {
	g, err := gen.RMAT(10, 8, gen.Graph500, 17)
	if err != nil {
		t.Fatal(err)
	}
	l := buildSystem(t, "husgraph", g, 4, storage.ScaledHDD)
	bfs := func() core.Program { return &algorithms.BFS{Source: 0} }
	res, err := core.Run(l, bfs(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(res.Decisions, func(d iosched.Decision) bool { return d.Model == iosched.OnDemandIO }) {
		t.Fatal("BFS never took the on-demand path, so the row index is never read")
	}
	// Entry 0 is 0, entry 1 is 2⁵⁵ and so are the rest: vertex 0, the source,
	// owns 2⁵⁵ records.
	huge := binary.AppendUvarint(nil, uint64(l.Meta.IntervalLen(0)+1))
	huge = binary.AppendUvarint(append(huge, 0), 1<<55)
	huge = append(huge, make([]byte, l.Meta.IntervalLen(0)-1)...)
	for name, idx := range map[string][]byte{"a delta of 2^55": huge, "one entry": {1, 0}} {
		if err := l.Dev.WriteFile(partition.RowIndexName(0), idx); err != nil {
			t.Fatal(err)
		}
		_, err := core.Run(l, bfs(), core.Options{})
		if err == nil || !strings.Contains(err.Error(), partition.RowIndexName(0)) {
			t.Errorf("%s: Run said %v, want an error naming %s", name, err, partition.RowIndexName(0))
		}
	}
}

// TestHostileRecordOnPositionalRead: a positional per-vertex read is never
// CRC-verified, so a damaged record in the file it reads — vertex 0's edge to 1
// made an edge to 2²⁰ on a 64-vertex chain — must be an error naming the file,
// not a kernel subscript. It used to panic with index out of range [1048576] in
// HUS-Graph's on-demand row and in SCIU on a raw GraphSD cell.
func TestHostileRecordOnPositionalRead(t *testing.T) {
	for _, c := range []struct{ system, file string }{
		{"husgraph", partition.RowName(0)},
		{"graphsd", partition.SubBlockName(0, 0)},
	} {
		t.Run(c.system, func(t *testing.T) {
			l := buildSystem(t, c.system, gen.Chain(64), 4, storage.HDD)
			data, err := l.Dev.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			if e := graph.DecodeEdge(data, false); e != (graph.Edge{Src: 0, Dst: 1}) {
				t.Fatalf("record 0 of %s is %+v, want 0->1", c.file, e)
			}
			binary.LittleEndian.PutUint32(data[4:], 1<<20)
			if err := l.Dev.WriteFile(c.file, data); err != nil {
				t.Fatal(err)
			}
			_, err = core.Run(l, &algorithms.BFS{Source: 0}, core.Options{ForceModel: core.ForceOnDemand})
			if err == nil || !strings.Contains(err.Error(), c.file) {
				t.Fatalf("Run said %v, want an error naming %s", err, c.file)
			}
		})
	}
}

// TestLumosReadsThroughTheBlockStream: Lumos's passes are GraphSD's full-model
// passes with state-awareness off, so its cells come through the same block
// stream — prefetched ahead of the scatter, and degraded to synchronous loads
// past a transient fault without a change to the outputs — and, since NewEngine
// gives a baseline no buffer, a per-run buffer or a shared cache asked for
// changes none of its device traffic. HUS-Graph's full path streams its column
// blocks the same way.
func TestLumosReadsThroughTheBlockStream(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	prog := func() core.Program { return &algorithms.PageRank{Iterations: 6} }
	systems := []string{"lumos", "husgraph"}
	layouts := make(map[string]*partition.Layout)
	plain := make(map[string]*core.Result)
	for _, sys := range systems {
		layouts[sys] = buildSystem(t, sys, g, 4, storage.ScaledHDD)
		if plain[sys], err = core.Run(layouts[sys], prog(), core.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("prefetched", func(t *testing.T) {
		for _, sys := range systems {
			if plain[sys].Pipeline.Blocks == 0 {
				t.Fatalf("%s: no block prefetched under the default depth: %+v", sys, plain[sys].Pipeline)
			}
		}
	})

	t.Run("chaos", func(t *testing.T) {
		for _, sys := range systems {
			l := layouts[sys]
			chaos := storage.NewChaos(storage.ChaosOptions{
				Seed:              42,
				TransientReadProb: 0.05,
				Match:             func(op, name string) bool { return op == "read" || op == "readat" },
			})
			l.Dev.SetFaultInjector(chaos.Injector())
			l.Dev.SetRetryPolicy(storage.RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1})
			res, err := core.Run(l, prog(), core.Options{})
			l.Dev.SetFaultInjector(nil)
			l.Dev.SetRetryPolicy(storage.RetryPolicy{})
			if err != nil {
				t.Fatalf("%s: chaos run did not survive: %v", sys, err)
			}
			if cs := chaos.Stats(); cs.Transient == 0 {
				t.Fatalf("%s: chaos injected no faults over %d ops", sys, cs.Ops)
			}
			if res.Iterations != plain[sys].Iterations {
				t.Fatalf("%s: faulty run took %d iterations, fault-free %d", sys, res.Iterations, plain[sys].Iterations)
			}
			requireIdenticalOutputs(t, plain[sys].Outputs, res.Outputs)
		}
	})

	t.Run("unbuffered", func(t *testing.T) {
		for _, sys := range systems {
			shared := buffer.NewShared(layouts[sys].Meta.EdgeBytesTotal() * 2)
			for run := 0; run < 2; run++ { // the second run finds the shared cache warm, were it used
				res, err := core.Run(layouts[sys], prog(), core.Options{DefaultBuffer: true, SharedBlocks: shared})
				if err != nil {
					t.Fatal(err)
				}
				if res.IO != plain[sys].IO || res.Buffer.Hits != 0 || res.SharedHits != 0 {
					t.Fatalf("%s run %d: IO %+v, buffer hits %d, shared hits %d; want a plain run's IO %+v and no hits",
						sys, run, res.IO, res.Buffer.Hits, res.SharedHits, plain[sys].IO)
				}
			}
		}
	})
}

// TestHUSGraphMissingFileFails: every HUS-Graph row and column file is written,
// empty or not, so one that is missing is damage — a run that reads it fails
// naming the file, as the row or column it is, instead of reading it as empty.
func TestHUSGraphMissingFileFails(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file, label string
		force       *iosched.Model
	}{
		{partition.ColName(1), "column 1", core.ForceFull},
		{partition.RowName(1), "row 1", core.ForceOnDemand},
	} {
		t.Run(c.label, func(t *testing.T) {
			l := buildSystem(t, "husgraph", g, 4, storage.ScaledHDD)
			if err := l.Dev.Remove(c.file); err != nil {
				t.Fatal(err)
			}
			_, err := core.Run(l, &algorithms.ConnectedComponents{}, core.Options{ForceModel: c.force})
			if err == nil || !strings.Contains(err.Error(), c.file) || !strings.Contains(err.Error(), c.label) || strings.Contains(err.Error(), "sub-block") {
				t.Fatalf("Run said %v, want an error naming %s and %s", err, c.label, c.file)
			}
		})
	}
}

// modelled counts the bytes l's device is charged, by class, for transfers
// that touch no file: the vertex values and HUS-Graph's index consult.
func modelled(l *partition.Layout) func() (read, written int64) {
	var mu sync.Mutex
	var n [2]int64
	l.Dev.SetTracer(func(ev storage.TraceEvent) {
		if ev.Op != "charge" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch ev.Class {
		case storage.SeqRead:
			n[0] += ev.Bytes
		case storage.SeqWrite:
			n[1] += ev.Bytes
		}
	})
	return func() (int64, int64) {
		mu.Lock()
		defer mu.Unlock()
		r, w := n[0], n[1]
		n = [2]int64{}
		return r, w
	}
}

// TestHUSGraphValueChargesFollowTheFrontier: HUS-Graph is active-aware, so
// each of its paths follows GraphSD's rule — an iteration reads the values of
// its live rows and of the intervals it applies, and writes back the latter —
// with the on-demand path's index consult on top. An all-active PageRank
// iteration pays the whole array both ways; Lumos, which is not active-aware,
// pays it every pass whatever the frontier.
func TestHUSGraphValueChargesFollowTheFrontier(t *testing.T) {
	g := gen.Chain(64) // 16 per interval; 15 → 16 crosses into interval 1
	models := []*iosched.Model{core.ForceOnDemand, core.ForceFull}
	index := func(m *iosched.Model, n int) int64 {
		if m == core.ForceOnDemand {
			return int64(n) * graph.IndexEntryBytes
		}
		return 0
	}
	// One iteration under the forced model.
	iterate := func(l *partition.Layout, prog core.Program, m *iosched.Model) {
		t.Helper()
		if _, err := core.Run(l, prog, core.Options{MaxIterations: 1, ForceModel: m}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range models {
		for _, c := range []struct {
			src           int
			read, written int64 // vertices
		}{
			{15, 32, 16}, // live interval 0, applied interval 1
			{40, 16, 16}, // both interval 2
		} {
			t.Run(fmt.Sprintf("%s/%d", *m, c.src), func(t *testing.T) {
				l := buildSystem(t, "husgraph", g, 4, storage.ScaledHDD)
				charges := modelled(l)
				iterate(l, &algorithms.BFS{Source: graph.VertexID(c.src)}, m)
				read, written := charges()
				wantRead := c.read*graph.VertexValueBytes + index(m, g.NumVertices)
				if read != wantRead || written != c.written*graph.VertexValueBytes {
					t.Fatalf("charged %d read / %d written, want %d / %d", read, written, wantRead, c.written*graph.VertexValueBytes)
				}
			})
		}
	}

	rmat, err := gen.RMAT(8, 8, gen.Graph500, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := int64(rmat.NumVertices) * graph.VertexValueBytes
	for _, m := range models {
		l := buildSystem(t, "husgraph", rmat, 4, storage.ScaledHDD)
		charges := modelled(l)
		iterate(l, &algorithms.PageRank{}, m)
		if read, written := charges(); read != v+index(m, rmat.NumVertices) || written != v {
			t.Errorf("%s PageRank iteration: charged %d read / %d written, want the whole array both ways", *m, read, written)
		}
	}

	for name, prog := range map[string]core.Program{"pagerank": &algorithms.PageRank{Iterations: 5}, "bfs": &algorithms.BFS{Source: 0}} {
		l := buildSystem(t, "lumos", rmat, 4, storage.ScaledHDD)
		charges := modelled(l)
		res, err := core.Run(l, prog, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if read, written := charges(); read != int64(res.Iterations)*v || written != read {
			t.Errorf("Lumos %s: charged %d read / %d written over %d passes, want the whole array both ways each", name, read, written, res.Iterations)
		}
	}
}

// TestBaselinesHonourCancellation: a baseline run stops between iterations
// once its context is cancelled, as a GraphSD run does — so Ctrl-C on
// `graphsd run` over a HUS-Graph or Lumos layout ends the run — and it reports
// each iteration it ran, by its system's path, before it stops.
func TestBaselinesHonourCancellation(t *testing.T) {
	g, err := gen.RMAT(9, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{"husgraph": "husgraph-full", "lumos": "lumos-1"}
	for _, name := range baselines {
		l := buildSystem(t, name, g, 4, storage.ScaledHDD)
		ctx, cancel := context.WithCancel(context.Background())
		var seen []core.IterStat
		_, err := core.RunContext(ctx, l, &algorithms.PageRank{Iterations: 10}, core.Options{
			OnIteration: func(st core.IterStat) {
				seen = append(seen, st)
				cancel()
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", name, err)
		}
		if len(seen) != 1 || seen[0].Path != paths[name] {
			t.Errorf("%s: ran %+v before stopping, want one %s iteration", name, seen, paths[name])
		}
	}

	// Inside an iteration too: cancelled as it reads its second edge file (a
	// cell, a column or a row), a run reads no other. Loads are synchronous, so
	// no fetch is in flight beside the one that cancels.
	for _, c := range []struct {
		name  string
		force *iosched.Model
	}{{"husgraph", core.ForceFull}, {"husgraph", core.ForceOnDemand}, {"lumos", nil}} {
		l := buildSystem(t, c.name, g, 8, storage.ScaledHDD)
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		files := make(map[string]bool)
		l.Dev.SetFaultInjector(func(op, name string) error {
			mu.Lock()
			defer mu.Unlock()
			if (op == "read" || op == "readat") && strings.HasSuffix(name, ".edges") {
				if files[name] = true; len(files) == 2 {
					cancel()
				}
			}
			return nil
		})
		_, err := core.RunContext(ctx, l, &algorithms.PageRank{Iterations: 10}, core.Options{ForceModel: c.force, PrefetchDepth: -1})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", c.name, err)
		}
		mu.Lock()
		if len(files) != 2 {
			t.Errorf("%s %v: cancelled at its second edge file, the run read %d", c.name, c.force, len(files))
		}
		mu.Unlock()
	}
}
