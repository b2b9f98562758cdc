package harness

import (
	"fmt"
	"io"
	"math"

	"github.com/graphsd/graphsd/internal/algorithms"
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
// priority sub-block scheduling. Three checks, all hard-enforced:
//
//  1. Sparse frontiers — BFS and SSSP under -async must move fewer device
//     bytes than the adaptive BSP baseline by the expectation table's
//     byte_reduction floor, with bit-identical outputs (min-programs have a
//     unique fixed point).
//  2. PR-Delta — async must converge in fewer sub-block activations than
//     the BSP schedule's iterations×P² grid sweeps, with per-vertex ranks
//     within the table's fixed_point_gap of the BSP fixed point. Both run the
//     same 1e-6 update tolerance, but each engine parks sub-tolerance mass at
//     different vertices and times, and parked mass amplifies by
//     ~1/(1-damping) per hop through hubs, so the observable gap is orders of
//     magnitude above the update tolerance itself.
//  3. Regression gate — at a recorded configuration, async device bytes
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

	// The traversals run on the road-sim sparse-frontier configuration from
	// vertex 0 (the chain head, so the frontier stays narrow end to end);
	// PR-D runs on the web-like uk-sim where active mass decays gradually.
	road, err := newEnv(cfg, Dataset{Name: "road-sim", Build: func(int64) (*graph.Graph, error) {
		return roadGraph(e.g.NumVertices), nil
	}})
	if err != nil {
		return err
	}
	road.source = 0
	workloads := []struct {
		alg      Algorithm
		frontier string
		env      *env
	}{
		{bfs, "sparse", road},
		{PaperAlgorithms()[3], "sparse", road}, // SSSP
		{Algorithm{"PR-D", false, func(graph.VertexID) core.Program {
			return &algorithms.PageRankDelta{Iterations: 200, Tolerance: 1e-6}
		}}, "decaying", e},
	}

	t := metrics.NewTable("Asynchronous priority scheduling vs BSP",
		"algorithm", "config", "frontier", "bsp bytes", "async bytes", "reduction", "blocks", "bsp iters×P²", "pops", "identical")
	var obs []observation
	for _, wl := range workloads {
		l, err := wl.env.layout("graphsd", wl.alg.Weighted)
		if err != nil {
			return err
		}
		config, source := wl.env.ds.Name, wl.env.source
		// BSP needs one iteration per hop, and the road chain is as long as
		// the graph: the programs' own bound (1 000 for the traversals) stops
		// short of the fixed point at full scale. No run needs more than one
		// iteration per vertex.
		base, err := core.Run(l, wl.alg.New(source), core.Options{DefaultBuffer: true, MaxIterations: l.Meta.NumVertices})
		if err != nil {
			return err
		}
		if !base.Converged {
			return fmt.Errorf("harness: BSP %s did not converge in %d iterations, so there is no fixed point to hold async to", wl.alg.Name, base.Iterations)
		}
		async, err := core.Run(l, wl.alg.New(source), core.Options{Async: true, DefaultBuffer: true})
		if err != nil {
			return err
		}
		if !async.Async.Enabled || !async.Converged {
			return fmt.Errorf("harness: async %s did not converge (enabled=%t)", wl.alg.Name, async.Async.Enabled)
		}

		identical := identicalOutputs(base.Outputs, async.Outputs)
		baseB, asyncB, blocks := base.IO.TotalBytes(), async.IO.TotalBytes(), async.Async.BlocksScheduled
		obs = append(obs, observation{config, wl.alg.Name, "graphsd-async", "async_device_bytes", float64(asyncB)})
		reduction := 0.0
		if baseB > 0 {
			reduction = 1 - float64(asyncB)/float64(baseB)
		}
		gridSweeps := int64(base.Iterations) * int64(l.Meta.P) * int64(l.Meta.P)
		t.AddRow(wl.alg.Name, config, wl.frontier,
			storage.FormatBytes(baseB), storage.FormatBytes(asyncB),
			fmt.Sprintf("%.1f%%", reduction*100),
			fmt.Sprint(blocks), fmt.Sprint(gridSweeps), fmt.Sprint(async.Async.Popped),
			fmt.Sprint(identical))

		switch wl.frontier {
		case "sparse":
			if !identical {
				return fmt.Errorf("harness: async %s outputs differ from the BSP fixed point", wl.alg.Name)
			}
			if async.Async.Popped == 0 {
				return fmt.Errorf("harness: async %s popped no vertex in value order: its narrow drains kept their rounds", wl.alg.Name)
			}
			obs = append(obs, observation{config, wl.alg.Name, "graphsd-async", "byte_reduction", reduction})
		case "decaying":
			if blocks >= gridSweeps {
				return fmt.Errorf("harness: async %s scheduled %d sub-blocks, BSP swept %d (%d iters × %d²) — no activation win",
					wl.alg.Name, blocks, gridSweeps, base.Iterations, l.Meta.P)
			}
			var maxDiff float64
			for i := range base.Outputs {
				if d := math.Abs(base.Outputs[i] - async.Outputs[i]); d > maxDiff {
					maxDiff = d
				}
			}
			obs = append(obs, observation{config, wl.alg.Name, "graphsd-async", "fixed_point_gap", maxDiff})
		}
	}
	t.AddNote("BSP baseline is the adaptive scheduler; both pay value traffic by the intervals they touch, BSP per pass over all its live rows, async per step over one")
	if err := t.Render(w); err != nil {
		return err
	}

	return cfg.hold("fig-async", obs)
}
