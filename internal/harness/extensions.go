package harness

import (
	"fmt"
	"io"

	"github.com/graphsd/graphsd/internal/iosched"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/storage"
)

// Extension experiments beyond the paper's evaluation: the storage
// sensitivity study motivated by the paper's conclusion ("exploit emerging
// storage devices such as Intel Optane PMM") and an interval-count (P)
// sweep over the design's main structural parameter.

// runExtStorage compares the adaptive scheduler across device classes: the
// adaptive engine must remain at (or under) the better forced model on every
// device. The full model reads live rows only, so on CC's clustered frontier
// it is the better one on all three and the on-demand count stays at zero.
func runExtStorage(cfg *Config, w io.Writer) error {
	alg := PaperAlgorithms()[2] // CC
	t := metrics.NewTable("ext-storage — CC on ukunion-sim across device classes",
		"device", "adaptive", "full, live rows", "on-demand-only", "on-demand iters")
	for _, dev := range []struct {
		name string
		prof storage.Profile
	}{
		{"scaled-hdd", storage.ScaledHDD},
		{"ssd", storage.SSD},
		{"pmem", storage.PMem},
	} {
		sub := *cfg
		sub.envs, sub.Profile, sub.WorkDir = nil, &dev.prof, cfg.WorkDir+"/ext-"+dev.name
		e, err := sub.env("ukunion-sim")
		if err != nil {
			return err
		}
		rs, err := e.runEach(alg, "graphsd", "graphsd-b2", "graphsd-b4")
		if err != nil {
			return err
		}
		adaptive, full, ondemand := rs[0], rs[1], rs[2]
		onDemandIters := 0
		for _, d := range adaptive.Decisions {
			if d.Model == iosched.OnDemandIO {
				onDemandIters++
			}
		}
		t.AddRow(dev.name,
			metrics.Dur(adaptive.ExecTime()), metrics.Dur(full.ExecTime()),
			metrics.Dur(ondemand.ExecTime()),
			fmt.Sprintf("%d/%d", onDemandIters, len(adaptive.Decisions)))
	}
	t.AddNote("adaptive stays at the lower envelope on every device; the full model skips dead source intervals, so it is not a read-everything baseline")
	return t.Render(w)
}

// runExtPSweep sweeps the interval count P, the grid's structural knob:
// more intervals mean finer selective loads but more positioning seeks and
// a smaller fraction of edges eligible for cross-iteration propagation
// (the diagonal shrinks as 1/P).
func runExtPSweep(cfg *Config, w io.Writer) error {
	alg := PaperAlgorithms()[2] // CC
	t := metrics.NewTable("ext-psweep — CC on uk-sim over interval counts",
		"P", "exec time", "I/O traffic", "iterations")
	for _, p := range []int{2, 4, 8, 16} {
		sub := *cfg
		sub.envs, sub.WorkDir = nil, fmt.Sprintf("%s/ext-p%d", cfg.WorkDir, p)
		e, err := sub.env("uk-sim")
		if err != nil {
			return err
		}
		e.p = p
		res, err := e.run("graphsd", alg)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprint(p), metrics.Dur(res.ExecTime()),
			storage.FormatBytes(res.IO.TotalBytes()), fmt.Sprint(res.Iterations))
	}
	t.AddNote("the paper fixes P by the 5%% memory budget; the sweep shows the cost of over- and under-partitioning")
	return t.Render(w)
}
