package harness

import (
	"fmt"
	"io"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/storage"
)

// roadGraph builds the sparse-frontier configuration: a chain backbone with
// a shortcut every eight vertices, the high-diameter road-network regime
// where a traversal's frontier stays a handful of vertices wide for the
// whole run. This is where asynchronous label-correcting execution wins —
// the BSP engine sweeps value arrays for hundreds of near-empty iterations.
func roadGraph(n int) *graph.Graph {
	g := gen.Chain(n)
	for i := 0; i+8 < n; i += 8 {
		g.Edges = append(g.Edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 8)})
	}
	return g
}

// runFigAsync is the proof-of-win study for asynchronous execution with
// priority sub-block scheduling. Two checks, both hard-enforced:
//
//  1. Sparse frontiers — BFS and SSSP under -async must move fewer device
//     bytes than the adaptive BSP baseline by the expectation table's
//     byte_reduction floor, with bit-identical outputs (min-programs have a
//     unique fixed point).
//  2. Regression gate — at a recorded configuration, async device bytes
//     must stay within the table's slack of the bytes recorded there.
//
// The traversals' drains start one vertex wide, so each must settle its
// interval in value order: a run that pops no vertex (the pops column) fails.
//
// Device traffic is simulated, so every assertion is deterministic.
func runFigAsync(cfg *Config, w io.Writer) error {
	e, err := cfg.env("uk-sim")
	if err != nil {
		return err
	}

	// The traversals run on the road-sim sparse-frontier configuration, as
	// long as uk-sim has vertices, from vertex 0 (the chain head, so the
	// frontier stays narrow end to end).
	road, err := newEnv(cfg, Dataset{Name: "road-sim", Build: func(int64) (*graph.Graph, error) {
		return roadGraph(e.g.NumVertices), nil
	}})
	if err != nil {
		return err
	}
	road.source = 0

	t := metrics.NewTable("Asynchronous priority scheduling vs BSP",
		"algorithm", "config", "frontier", "bsp bytes", "async bytes", "reduction", "blocks", "bsp iters×P²", "pops", "identical")
	var obs []observation
	for _, alg := range []Algorithm{bfs, PaperAlgorithms()[3]} { // BFS, SSSP
		l, err := road.layout("graphsd", alg.Weighted)
		if err != nil {
			return err
		}
		config, source := road.ds.Name, road.source
		// BSP needs one iteration per hop, and the road chain is as long as
		// the graph: the programs' own bound (1 000 for the traversals) stops
		// short of the fixed point at full scale. No run needs more than one
		// iteration per vertex.
		base, err := core.Run(l, alg.New(source), core.Options{DefaultBuffer: true, MaxIterations: l.Meta.NumVertices})
		if err != nil {
			return err
		}
		if !base.Converged {
			return fmt.Errorf("harness: BSP %s did not converge in %d iterations, so there is no fixed point to hold async to", alg.Name, base.Iterations)
		}
		async, err := core.Run(l, alg.New(source), core.Options{Async: true, DefaultBuffer: true})
		if err != nil {
			return err
		}
		if !async.Async.Enabled || !async.Converged {
			return fmt.Errorf("harness: async %s did not converge (enabled=%t)", alg.Name, async.Async.Enabled)
		}

		identical := identicalOutputs(base.Outputs, async.Outputs)
		baseB, asyncB, blocks := base.IO.TotalBytes(), async.IO.TotalBytes(), async.Async.BlocksScheduled
		reduction := 0.0
		if baseB > 0 {
			reduction = 1 - float64(asyncB)/float64(baseB)
		}
		gridSweeps := int64(base.Iterations) * int64(l.Meta.P) * int64(l.Meta.P)
		t.AddRow(alg.Name, config, "sparse",
			storage.FormatBytes(baseB), storage.FormatBytes(asyncB),
			fmt.Sprintf("%.1f%%", reduction*100),
			fmt.Sprint(blocks), fmt.Sprint(gridSweeps), fmt.Sprint(async.Async.Popped),
			fmt.Sprint(identical))

		if !identical {
			return fmt.Errorf("harness: async %s outputs differ from the BSP fixed point", alg.Name)
		}
		if async.Async.Popped == 0 {
			return fmt.Errorf("harness: async %s popped no vertex in value order: its narrow drains kept their rounds", alg.Name)
		}
		obs = append(obs,
			observation{config, alg.Name, "graphsd-async", "async_device_bytes", float64(asyncB)},
			observation{config, alg.Name, "graphsd-async", "byte_reduction", reduction})
	}
	t.AddNote("BSP baseline is the adaptive scheduler; both pay value traffic by the intervals they touch, BSP per pass over all its live rows, async per step over one")
	if err := t.Render(w); err != nil {
		return err
	}

	return cfg.hold("fig-async", obs)
}
