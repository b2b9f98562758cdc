package baseline_test

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/baseline"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

type builder func(dev *storage.Device, g *graph.Graph, p int, opts ...partition.BuildOption) (*partition.Layout, error)
type runner func(l *partition.Layout, prog core.Program, opts baseline.Options) (*core.Result, error)

func buildWith(t *testing.T, b builder, g *graph.Graph, p int, prof storage.Profile) *partition.Layout {
	t.Helper()
	dev, err := storage.OpenDevice(t.TempDir(), prof)
	if err != nil {
		t.Fatal(err)
	}
	l, err := b(dev, g, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

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
	systems := map[string]struct {
		build builder
		run   runner
	}{
		"husgraph": {partition.BuildHUSGraph, baseline.RunHUSGraph},
		"lumos":    {partition.BuildLumos, baseline.RunLumos},
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
			for sname, sys := range systems {
				for _, p := range []int{1, 3} {
					l := buildWith(t, sys.build, g, p, storage.HDD)
					res, err := sys.run(l, mk(), baseline.Options{})
					if err != nil {
						t.Fatalf("%s/%s/%s/p%d: %v", sname, gname, pname, p, err)
					}
					for v := range want {
						if !almostEqual(res.Outputs[v], want[v], 1e-9) {
							t.Fatalf("%s/%s/%s/p%d vertex %d: %v want %v",
								sname, gname, pname, p, v, res.Outputs[v], want[v])
						}
					}
				}
			}
		}
	}
}

func TestBaselineSSSP(t *testing.T) {
	g := gen.Weighted(gen.Chain(25), 4, 3)
	want, _ := core.RunReference(g, &algorithms.SSSP{Source: 0}, 0)
	for name, sys := range map[string]struct {
		build builder
		run   runner
	}{
		"husgraph": {partition.BuildHUSGraph, baseline.RunHUSGraph},
		"lumos":    {partition.BuildLumos, baseline.RunLumos},
	} {
		l := buildWith(t, sys.build, g, 2, storage.HDD)
		res, err := sys.run(l, &algorithms.SSSP{Source: 0}, baseline.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range want {
			if !almostEqual(res.Outputs[v], want[v], 1e-9) {
				t.Fatalf("%s vertex %d: %v want %v", name, v, res.Outputs[v], want[v])
			}
		}
	}
}

func TestLayoutSystemChecks(t *testing.T) {
	g := gen.Chain(10)
	gsd := buildWith(t, partition.Build, g, 2, storage.HDD)
	if _, err := baseline.RunHUSGraph(gsd, &algorithms.PageRank{}, baseline.Options{}); err == nil {
		t.Error("HUS engine accepted graphsd layout")
	}
	if _, err := baseline.RunLumos(gsd, &algorithms.PageRank{}, baseline.Options{}); err == nil {
		t.Error("Lumos engine accepted graphsd layout")
	}
	lum := buildWith(t, partition.BuildLumos, g, 2, storage.HDD)
	if _, err := baseline.RunLumos(lum, &algorithms.SSSP{Source: 0}, baseline.Options{}); err == nil {
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
	const p = 4
	prof := storage.ScaledHDD
	prog := func() core.Program { return &algorithms.BFS{Source: 0} }

	gsdLayout := buildWith(t, partition.Build, g, p, prof)
	gsd, err := core.Run(gsdLayout, prog(), core.Options{DefaultBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	husLayout := buildWith(t, partition.BuildHUSGraph, g, p, prof)
	hus, err := baseline.RunHUSGraph(husLayout, prog(), baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lumLayout := buildWith(t, partition.BuildLumos, g, p, prof)
	lum, err := baseline.RunLumos(lumLayout, prog(), baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}

	gsdB, husB, lumB := gsd.IO.ReadBytes(), hus.IO.ReadBytes(), lum.IO.ReadBytes()
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
	l := buildWith(t, partition.BuildHUSGraph, g, 4, storage.ScaledHDD)
	bfs := func() core.Program { return &algorithms.BFS{Source: 0} }
	res, err := baseline.RunHUSGraph(l, bfs(), baseline.Options{})
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
		_, err := baseline.RunHUSGraph(l, bfs(), baseline.Options{})
		if err == nil || !strings.Contains(err.Error(), partition.RowIndexName(0)) {
			t.Errorf("%s: RunHUSGraph said %v, want an error naming %s", name, err, partition.RowIndexName(0))
		}
	}
}
