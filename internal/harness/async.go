package harness

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// Acceptance thresholds for the asynchronous-execution experiment, enforced
// here so the harness test fails on regression.
const (
	// asyncByteReductionMin is the minimum device-byte reduction async
	// execution must deliver over the BSP baseline on the sparse-frontier
	// traversals (BFS, SSSP): async bytes must be ≤ (1-min)× BSP bytes.
	asyncByteReductionMin = 0.25
	// asyncRegressionMax caps device bytes against the committed baseline:
	// a run moving more than baseline×max fails the experiment.
	asyncRegressionMax = 1.05
	// asyncPRDTolerance bounds the per-vertex rank difference between async
	// and BSP PR-D fixed points. Both run the same 1e-6 update tolerance,
	// but each engine parks sub-tolerance mass at different vertices and
	// times, and parked mass amplifies by ~1/(1-damping) per hop through
	// hubs, so the observable gap is orders of magnitude above the update
	// tolerance itself.
	asyncPRDTolerance = 1e-2
)

// asyncBaseline is what the regression gate reads of the committed
// testdata/async_baseline.json: the configuration it was measured under and
// each algorithm's async device bytes.
type asyncBaseline struct {
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick"`
	Runs  []struct {
		Algorithm  string `json:"algorithm"`
		AsyncBytes int64  `json:"async_device_bytes"`
	} `json:"runs"`
}

// asyncBaselineJSON is the committed reference for the regression gate. It
// was produced by this experiment (quick scale, seed 1) and is only enforced
// when the current run matches that configuration, so local full-scale or
// reseeded runs don't trip it.
//
//go:embed testdata/async_baseline.json
var asyncBaselineJSON []byte

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

// roadLayout materializes the road graph (weighted or not) under WorkDir.
func roadLayout(cfg *Config, g *graph.Graph, key string) (*partition.Layout, error) {
	dir := filepath.Join(cfg.WorkDir, "road-sim", key)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("harness: cleaning %s: %w", dir, err)
	}
	dev, err := storage.OpenDevice(dir, cfg.profile())
	if err != nil {
		return nil, err
	}
	l, err := partition.Build(dev, g, chooseP(g, cfg.Quick))
	if err != nil {
		return nil, fmt.Errorf("harness: preprocessing road-sim: %w", err)
	}
	return l, nil
}

// runFigAsync is the proof-of-win study for asynchronous execution with
// priority sub-block scheduling. Three checks, all hard-enforced:
//
//  1. Sparse frontiers — BFS and SSSP under -async must move at least
//     asyncByteReductionMin fewer device bytes than the adaptive BSP
//     baseline, with bit-identical outputs (min-programs have a unique
//     fixed point).
//  2. PR-Delta — async must converge in fewer sub-block activations than
//     the BSP schedule's iterations×P² grid sweeps, with per-vertex ranks
//     within asyncPRDTolerance of the BSP fixed point.
//  3. Regression gate — when the run matches the committed baseline's
//     configuration, async device bytes must stay within
//     asyncRegressionMax× of the baseline.
//
// Device traffic is simulated, so every assertion is deterministic.
func runFigAsync(cfg *Config, w io.Writer) error {
	ds, err := cfg.dataset("uk-sim")
	if err != nil {
		return err
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		return err
	}

	// The traversals run on the road-sim sparse-frontier configuration from
	// vertex 0 (the chain head, so the frontier stays narrow end to end);
	// PR-D runs on the web-like uk-sim where active mass decays gradually.
	road := roadGraph(e.g.NumVertices)
	roadW := gen.Weighted(road.Clone(), 16, cfg.Seed+1)
	prd := func() core.Program { return &algorithms.PageRankDelta{Iterations: 200, Tolerance: 1e-6} }
	workloads := []struct {
		alg      Algorithm
		frontier string
		config   string
		layout   func() (*partition.Layout, error)
		source   graph.VertexID
	}{
		{Algorithm{"BFS", false, func(src graph.VertexID) core.Program { return &algorithms.BFS{Source: src} }},
			"sparse", "road-sim", func() (*partition.Layout, error) { return roadLayout(cfg, road, "u") }, 0},
		{Algorithm{"SSSP", true, func(src graph.VertexID) core.Program { return &algorithms.SSSP{Source: src} }},
			"sparse", "road-sim", func() (*partition.Layout, error) { return roadLayout(cfg, roadW, "w") }, 0},
		{Algorithm{"PR-D", false, func(graph.VertexID) core.Program { return prd() }},
			"decaying", ds.Name, func() (*partition.Layout, error) { return e.layout("graphsd", false) }, e.source},
	}

	t := metrics.NewTable("Asynchronous priority scheduling vs BSP",
		"algorithm", "config", "frontier", "bsp bytes", "async bytes", "reduction", "blocks", "bsp iters×P²", "identical")
	asyncBytes := map[string]int64{} // by algorithm, for the regression gate
	for _, wl := range workloads {
		l, err := wl.layout()
		if err != nil {
			return err
		}
		// BSP needs one iteration per hop, and the road chain is as long as
		// the graph: the programs' own bound (1 000 for the traversals) stops
		// short of the fixed point at full scale. No run needs more than one
		// iteration per vertex.
		base, err := core.Run(l, wl.alg.New(wl.source), core.Options{DefaultBuffer: true, MaxIterations: l.Meta.NumVertices})
		if err != nil {
			return err
		}
		if !base.Converged {
			return fmt.Errorf("harness: BSP %s did not converge in %d iterations, so there is no fixed point to hold async to", wl.alg.Name, base.Iterations)
		}
		async, err := core.Run(l, wl.alg.New(wl.source), core.Options{Async: true, DefaultBuffer: true})
		if err != nil {
			return err
		}
		if !async.Async.Enabled || !async.Converged {
			return fmt.Errorf("harness: async %s did not converge (enabled=%t)", wl.alg.Name, async.Async.Enabled)
		}

		identical := identicalOutputs(base.Outputs, async.Outputs)
		baseB, asyncB, blocks := base.IO.TotalBytes(), async.IO.TotalBytes(), async.Async.BlocksScheduled
		asyncBytes[wl.alg.Name] = asyncB
		reduction := 0.0
		if baseB > 0 {
			reduction = 1 - float64(asyncB)/float64(baseB)
		}
		gridSweeps := int64(base.Iterations) * int64(l.Meta.P) * int64(l.Meta.P)
		t.AddRow(wl.alg.Name, wl.config, wl.frontier,
			storage.FormatBytes(baseB), storage.FormatBytes(asyncB),
			fmt.Sprintf("%.1f%%", reduction*100),
			fmt.Sprint(blocks), fmt.Sprint(gridSweeps),
			fmt.Sprint(identical))

		switch wl.frontier {
		case "sparse":
			if !identical {
				return fmt.Errorf("harness: async %s outputs differ from the BSP fixed point", wl.alg.Name)
			}
			if reduction < asyncByteReductionMin {
				return fmt.Errorf("harness: async %s moved %d device bytes vs %d BSP (%.1f%% reduction, floor %.0f%%)",
					wl.alg.Name, asyncB, baseB, reduction*100, asyncByteReductionMin*100)
			}
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
			if maxDiff > asyncPRDTolerance {
				return fmt.Errorf("harness: async %s fixed point off by %.3e (tolerance %.0e)",
					wl.alg.Name, maxDiff, asyncPRDTolerance)
			}
		}
	}
	t.AddNote("BSP baseline is the adaptive scheduler; async charges value traffic per touched interval instead of full sweeps")
	if err := t.Render(w); err != nil {
		return err
	}

	// Regression gate against the committed baseline, enforced only when
	// this run reproduces the baseline's configuration.
	var baseline asyncBaseline
	if err := json.Unmarshal(asyncBaselineJSON, &baseline); err != nil {
		return fmt.Errorf("harness: corrupt committed async baseline: %w", err)
	}
	if cfg.Quick == baseline.Quick && cfg.Seed == baseline.Seed && cfg.profile() == storage.ScaledHDD {
		for _, b := range baseline.Runs {
			got, ok := asyncBytes[b.Algorithm]
			if ok && float64(got) > float64(b.AsyncBytes)*asyncRegressionMax {
				return fmt.Errorf("harness: async %s moved %d device bytes, committed baseline %d — >%.2fx regression",
					b.Algorithm, got, b.AsyncBytes, asyncRegressionMax)
			}
		}
	}
	return nil
}
