package harness

import (
	"fmt"
	"io"
	"time"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/metrics"
	"github.com/graphsd/graphsd/internal/storage"
)

// runTable3 regenerates Table 3: the dataset inventory, paper originals
// next to the synthetic stand-ins actually generated.
func runTable3(cfg *Config, w io.Writer) error {
	dss, err := cfg.selectedDatasets()
	if err != nil {
		return err
	}
	t := metrics.NewTable("Table 3 — datasets",
		"dataset", "paper original", "paper |V|/|E|", "synthetic |V|", "synthetic |E|", "edge bytes", "degree skew")
	for _, ds := range dss {
		g, err := ds.Build(cfg.Seed)
		if err != nil {
			return err
		}
		s := gen.ComputeDegreeStats(g)
		t.AddRow(ds.Name, ds.PaperName, ds.PaperSize,
			fmt.Sprint(g.NumVertices), fmt.Sprint(g.NumEdges()),
			storage.FormatBytes(g.Bytes()),
			fmt.Sprintf("gini=%.2f max=%d", s.Gini, s.Max))
	}
	t.AddNote("originals are unavailable/outsized; stand-ins keep the degree skew and size ordering (DESIGN.md §2)")
	return t.Render(w)
}

// comparison is Figure 5's, 6's and 7's column order.
var comparison = []string{"graphsd", "husgraph", "lumos"}

// runFig5 regenerates Figure 5 (normalized execution time of GraphSD,
// HUS-Graph and Lumos on every dataset × algorithm) and Table 4 (absolute
// GraphSD times), then holds each cell's device time to the expectation table.
func runFig5(cfg *Config, w io.Writer) error {
	dss, err := cfg.selectedDatasets()
	if err != nil {
		return err
	}
	norm := metrics.NewTable("Figure 5 — execution time normalized to GraphSD (lower is better)",
		"dataset", "algorithm", "GraphSD", "HUS-Graph", "Lumos")
	abs := metrics.NewTable("Table 4 — absolute GraphSD execution time (simulated disk)",
		"dataset", "PR", "PR-D", "CC", "SSSP")
	var worstHUS, worstLumos float64
	var sumHUS, sumLumos float64
	var count int
	var obs []observation
	for _, ds := range dss {
		e, err := cfg.env(ds.Name)
		if err != nil {
			return err
		}
		absRow := []string{ds.Name}
		for _, alg := range PaperAlgorithms() {
			rs, err := e.runEach(alg, comparison...)
			if err != nil {
				return err
			}
			for k, sys := range comparison {
				obs = append(obs, observation{ds.Name, alg.Name, sys, "device_time", float64(rs[k].IOTime())})
			}
			g, h, l := rs[0].ExecTime(), rs[1].ExecTime(), rs[2].ExecTime()
			norm.AddRow(ds.Name, alg.Name, "1.00x", metrics.Ratio(h, g), metrics.Ratio(l, g))
			absRow = append(absRow, metrics.Dur(g))
			rh := float64(h) / float64(g)
			rl := float64(l) / float64(g)
			sumHUS += rh
			sumLumos += rl
			count++
			if rh > worstHUS {
				worstHUS = rh
			}
			if rl > worstLumos {
				worstLumos = rl
			}
		}
		abs.AddRow(absRow...)
	}
	if count > 0 {
		norm.AddNote("speedup over HUS-Graph: avg %.2fx, max %.2fx (paper: avg 1.7x, up to 2.7x)", sumHUS/float64(count), worstHUS)
		norm.AddNote("speedup over Lumos:     avg %.2fx, max %.2fx (paper: avg 2.7x, up to 3.9x)", sumLumos/float64(count), worstLumos)
	}
	if err := norm.Render(w); err != nil {
		return err
	}
	if err := abs.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig5", obs)
}

// runFig6 regenerates Figure 6: the I/O vs vertex-update breakdown of each
// system's execution time on the Twitter stand-in — Figure 5's cells again.
func runFig6(cfg *Config, w io.Writer) error {
	e, err := cfg.env("twitter-sim")
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 6 — runtime breakdown on "+e.ds.Name,
		"algorithm", "system", "total", "disk I/O", "I/O share", "vertex update")
	var io [3]time.Duration // by comparison column
	for _, alg := range PaperAlgorithms() {
		rs, err := e.runEach(alg, comparison...)
		if err != nil {
			return err
		}
		for k, res := range rs {
			t.AddRow(alg.Name, comparison[k], metrics.Dur(res.ExecTime()),
				metrics.Dur(res.IOTime()), metrics.Pct(res.IOTime(), res.ExecTime()),
				metrics.Dur(res.ComputeTime))
			io[k] += res.IOTime()
		}
	}
	if io[1] == 0 || io[2] == 0 {
		return t.Render(w)
	}
	// The gated share is the figure's device-clock half: GraphSD's disk I/O
	// time over each baseline's, summed over the algorithms. The I/O share of
	// each total mixes in measured compute, which is the host's.
	overHUS, overLumos := float64(io[0])/float64(io[1]), float64(io[0])/float64(io[2])
	t.AddNote("GraphSD disk I/O time is %.0f%% of HUS-Graph and %.0f%% of Lumos (paper: 73%% and 49%%)", 100*overHUS, 100*overLumos)
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig6", []observation{
		{e.ds.Name, "", "graphsd", "io_time_over_husgraph", overHUS},
		{e.ds.Name, "", "graphsd", "io_time_over_lumos", overLumos},
	})
}

// runFig7 regenerates Figure 7: I/O traffic on the Twitter and UK stand-ins.
func runFig7(cfg *Config, w io.Writer) error {
	t := metrics.NewTable("Figure 7 — I/O traffic",
		"dataset", "algorithm", "GraphSD", "HUS-Graph", "Lumos")
	var sumHUS, sumLumos float64
	var count int
	var obs []observation
	for _, name := range []string{"twitter-sim", "uk-sim"} {
		e, err := cfg.env(name)
		if err != nil {
			return err
		}
		for _, alg := range PaperAlgorithms() {
			rs, err := e.runEach(alg, comparison...)
			if err != nil {
				return err
			}
			row := []string{name, alg.Name}
			for k, res := range rs {
				row = append(row, storage.FormatBytes(res.IO.TotalBytes()))
				obs = append(obs, observation{name, alg.Name, comparison[k], "device_bytes", float64(res.IO.TotalBytes())})
			}
			t.AddRow(row...)
			sumHUS += float64(rs[1].IO.TotalBytes()) / float64(rs[0].IO.TotalBytes())
			sumLumos += float64(rs[2].IO.TotalBytes()) / float64(rs[0].IO.TotalBytes())
			count++
		}
	}
	if count > 0 {
		t.AddNote("traffic vs GraphSD: HUS-Graph avg %.2fx, Lumos avg %.2fx (paper: 1.6x and 5.5x)",
			sumHUS/float64(count), sumLumos/float64(count))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig7", obs)
}

// runFig8 regenerates Figure 8: preprocessing cost per system. The
// reported time is simulated I/O time plus measured partition/sort CPU
// time, mirroring the execution-time metric.
func runFig8(cfg *Config, w io.Writer) error {
	dss, err := cfg.selectedDatasets()
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 8 — preprocessing time",
		"dataset", "system", "time", "written", "vs lumos")
	systems := []string{"husgraph", "graphsd", "lumos"}
	// The gate reads the written-bytes column; time mixes in measured
	// in-memory time, the fastest of prepBuilds builds (env.prepTime).
	var obs []observation
	for _, ds := range dss {
		e, err := cfg.env(ds.Name)
		if err != nil {
			return err
		}
		times := make(map[string]time.Duration, len(systems))
		for _, sys := range systems {
			if times[sys], err = e.prepTime(sys); err != nil {
				return err
			}
		}
		for _, sys := range systems {
			written := e.preps[sys].io.WriteBytes()
			t.AddRow(ds.Name, sys, metrics.Dur(times[sys]), storage.FormatBytes(written), metrics.Ratio(times[sys], times["lumos"]))
			obs = append(obs, observation{ds.Name, "", sys, "written_bytes", float64(written)})
		}
	}
	t.AddNote("paper: HUS-Graph ≈ 1.8x and GraphSD ≈ 1.3x the preprocessing time of Lumos")
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig8", obs)
}

// runFig9 regenerates Figure 9: GraphSD against its own ablations b1
// (no cross-iteration updates) and b2 (no selective loading) on the
// Twitter stand-in, in execution time and I/O traffic. b2 pins the full
// model, which here reads live rows only: it is not the paper's b2, which
// streams every block.
func runFig9(cfg *Config, w io.Writer) error {
	e, err := cfg.env("twitter-sim")
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 9 — update-strategy ablations on "+e.ds.Name,
		"algorithm", "variant", "exec time", "vs graphsd", "I/O traffic", "traffic ratio")
	var obs []observation
	for _, alg := range PaperAlgorithms() {
		rows := []string{"graphsd", "graphsd-b1", "graphsd-b2"}
		rs, err := e.runEach(alg, rows...)
		if err != nil {
			return err
		}
		base := rs[0]
		for k, res := range rs {
			t.AddRow(alg.Name, rows[k], metrics.Dur(res.ExecTime()),
				metrics.Ratio(res.ExecTime(), base.ExecTime()),
				storage.FormatBytes(res.IO.TotalBytes()),
				metrics.RatioF(float64(res.IO.TotalBytes()), float64(base.IO.TotalBytes())))
		}
		obs = append(obs, observation{e.ds.Name, alg.Name, "graphsd-b1", "bytes_over_graphsd",
			float64(rs[1].IO.TotalBytes()) / float64(base.IO.TotalBytes())})
	}
	t.AddNote("paper: GraphSD outruns b1 by 1.7x and b2 by 2.8x; traffic 1.6x / 5.4x lower")
	t.AddNote("b2 here is the full model over live rows — every full pass skips source intervals with no active vertex — not the paper's read-everything b2")
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig9", obs)
}

// runFig10 regenerates Figure 10: per-iteration execution time of CC on
// the UKUnion stand-in under the adaptive scheduler versus the two forced
// models; the adaptive line must track the lower envelope.
func runFig10(cfg *Config, w io.Writer) error {
	e, err := cfg.env("ukunion-sim")
	if err != nil {
		return err
	}
	alg := PaperAlgorithms()[2] // CC
	rs, err := e.runEach(alg, "graphsd", "graphsd-b2", "graphsd-b4")
	if err != nil {
		return err
	}
	adaptive, full, ondemand := rs[0], rs[1], rs[2]
	t := metrics.NewTable("Figure 10 — per-iteration time, CC on "+e.ds.Name,
		"iteration", "active", "adaptive", "path", "full, live rows (b3)", "on-demand-only (b4)")
	iters := len(adaptive.IterStats)
	if len(full.IterStats) > iters {
		iters = len(full.IterStats)
	}
	if len(ondemand.IterStats) > iters {
		iters = len(ondemand.IterStats)
	}
	cell := func(stats []core.IterStat, i int) string {
		if i < len(stats) {
			return metrics.Dur(stats[i].Time())
		}
		return "—"
	}
	wins := 0
	for i := 0; i < iters; i++ {
		active, path := "—", "—"
		if i < len(adaptive.IterStats) {
			active = fmt.Sprint(adaptive.IterStats[i].Active)
			path = adaptive.IterStats[i].Path
			if i < len(full.IterStats) && i < len(ondemand.IterStats) {
				// On the device clock, so the count is the same on every host.
				// Allow 25% slack: iteration boundaries of FCIU pairs shift.
				lower := min(full.IterStats[i].IOTime, ondemand.IterStats[i].IOTime)
				if float64(adaptive.IterStats[i].IOTime) <= 1.25*float64(lower) {
					wins++
				}
			}
		}
		t.AddRow(fmt.Sprint(i), active, cell(adaptive.IterStats, i), path,
			cell(full.IterStats, i), cell(ondemand.IterStats, i))
	}
	t.AddNote("totals — adaptive %v, full model over live rows %v, on-demand-only %v",
		metrics.Dur(adaptive.ExecTime()), metrics.Dur(full.ExecTime()), metrics.Dur(ondemand.ExecTime()))
	t.AddNote("adaptive tracked the per-iteration lower envelope of device time in %d/%d comparable iterations", wins, iters)
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig10", []observation{{e.ds.Name, alg.Name, "graphsd", "envelope_iterations", float64(wins)}})
}

// runFig11 regenerates Figure 11: the CPU overhead of the benefit
// evaluation against the I/O time it saves relative to the forced models.
func runFig11(cfg *Config, w io.Writer) error {
	e, err := cfg.env("twitter-sim")
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 11 — scheduling overhead vs reduced I/O time on "+e.ds.Name,
		"algorithm", "evaluation overhead", "I/O saved vs full, live rows", "I/O saved vs on-demand-only")
	var obs []observation
	for _, alg := range PaperAlgorithms() {
		rs, err := e.runEach(alg, "graphsd", "graphsd-b2", "graphsd-b4")
		if err != nil {
			return err
		}
		adaptive, full, ondemand := rs[0], rs[1], rs[2]
		savedFull := full.IOTime() - adaptive.IOTime()
		savedOD := ondemand.IOTime() - adaptive.IOTime()
		t.AddRow(alg.Name, metrics.Dur(adaptive.SchedulerOverhead), metrics.Dur(savedFull), metrics.Dur(savedOD))
		obs = append(obs, observation{e.ds.Name, alg.Name, "graphsd", "io_saved_vs_on_demand_ns", float64(savedOD)})
	}
	t.AddNote("paper: overhead negligible (e.g. PR-D: 3.4s evaluation vs 158s I/O saved)")
	t.AddNote("the full model here reads live rows only, not every block as the paper's does, so the first column is smaller than the paper's saving")
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig11", obs)
}

// runFig12 regenerates Figure 12: execution time with and without the
// secondary sub-block buffering scheme on the UKUnion stand-in.
func runFig12(cfg *Config, w io.Writer) error {
	e, err := cfg.env("ukunion-sim")
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 12 — buffering scheme on "+e.ds.Name,
		"algorithm", "with buffering", "without", "improvement", "buffer hits", "bytes saved")
	var obs []observation
	for _, alg := range PaperAlgorithms() {
		rs, err := e.runEach(alg, "graphsd", "graphsd-nobuf")
		if err != nil {
			return err
		}
		with, without := rs[0], rs[1]
		imp := "—"
		if without.ExecTime() > 0 {
			imp = fmt.Sprintf("%.0f%%", 100*(1-float64(with.ExecTime())/float64(without.ExecTime())))
		}
		t.AddRow(alg.Name, metrics.Dur(with.ExecTime()), metrics.Dur(without.ExecTime()),
			imp, fmt.Sprint(with.Buffer.Hits), storage.FormatBytes(with.Buffer.BytesSaved))
		obs = append(obs, observation{e.ds.Name, alg.Name, "graphsd", "bytes_over_unbuffered",
			float64(with.IO.TotalBytes()) / float64(without.IO.TotalBytes())})
	}
	t.AddNote("paper: buffering improves performance by up to 21%%")
	if err := t.Render(w); err != nil {
		return err
	}
	return cfg.hold("fig12", obs)
}
