package baseline

import (
	"context"
	"fmt"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// System is one row of the paper's comparison: the name a layout's manifest
// records, the preprocessor that writes that layout and the engine that runs
// over it. The CLI (preprocess, run, compare) and the experiment harness pick
// builder and runner here and nowhere else.
type System struct {
	Name  string
	Build func(dev *storage.Device, g *graph.Graph, p int, opts ...partition.BuildOption) (*partition.Layout, error)
	// Run executes prog over a layout Build wrote. The baselines read
	// opts.MaxIterations and nothing else; ctx cancels GraphSD between sub-blocks.
	Run func(ctx context.Context, l *partition.Layout, prog core.Program, opts core.Options) (*core.Result, error)
}

// Systems returns the comparison table, GraphSD first.
func Systems() []System {
	return []System{
		{"graphsd", partition.Build, core.RunContext},
		{"husgraph", partition.BuildHUSGraph, func(_ context.Context, l *partition.Layout, prog core.Program, opts core.Options) (*core.Result, error) {
			return RunHUSGraph(l, prog, Options{MaxIterations: opts.MaxIterations})
		}},
		{"lumos", partition.BuildLumos, func(_ context.Context, l *partition.Layout, prog core.Program, opts core.Options) (*core.Result, error) {
			return RunLumos(l, prog, Options{MaxIterations: opts.MaxIterations})
		}},
	}
}

// SystemByName returns the table row called name.
func SystemByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("baseline: unknown system %q", name)
}
