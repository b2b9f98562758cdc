package core_test

import (
	"testing"
	"testing/quick"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestPropertyEngineEqualsOracle drives the central BSP-equivalence claim
// with randomized inputs: arbitrary edge multisets, arbitrary partition
// counts, and a configuration chosen from the ablation space must always
// reproduce the in-memory oracle bit-for-bit for min-style programs.
func TestPropertyEngineEqualsOracle(t *testing.T) {
	cfgs := []core.Options{
		{DefaultBuffer: true},
		{DisableCrossIteration: true},
		{ForceModel: core.ForceFull, DefaultBuffer: true},
		{ForceModel: core.ForceOnDemand},
	}
	f := func(raw []uint16, pRaw, cfgRaw, srcRaw uint8) bool {
		const n = 48
		g := &graph.Graph{NumVertices: n}
		for k := 0; k+1 < len(raw); k += 2 {
			g.Edges = append(g.Edges, graph.Edge{
				Src: graph.VertexID(raw[k] % n), Dst: graph.VertexID(raw[k+1] % n),
			})
		}
		p := int(pRaw)%6 + 1
		src := graph.VertexID(srcRaw) % n
		opts := cfgs[int(cfgRaw)%len(cfgs)]

		mk := func() core.Program { return &algorithms.BFS{Source: src} }
		want, _ := core.RunReference(g, mk(), 0)

		dev, err := storage.OpenDevice(t.TempDir(), storage.ScaledHDD)
		if err != nil {
			return false
		}
		layout, err := partition.Build(dev, g, p)
		if err != nil {
			return false
		}
		res, err := core.Run(layout, mk(), opts)
		if err != nil {
			return false
		}
		for v := range want {
			a, b := res.Outputs[v], want[v]
			if a != b && !(a > 1e300 && b > 1e300) { // both +Inf
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
