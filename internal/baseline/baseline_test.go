package baseline_test

import (
	"math"
	"testing"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/baseline"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
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
