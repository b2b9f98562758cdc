package harness

import (
	_ "embed"
	"encoding/json"
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

// fig5Winners is the committed testdata/fig5_winners.json: the system with
// the least simulated device time (Result.IOTime) in each Figure 5 cell at
// quick scale. That clock is deterministic and is 86–98% of a plain run's
// execution time; the measured-compute remainder is the host's (under the race
// detector it flips close cells at random), so the gate does not read it. The
// file is kept by hand: a cell changes when a PR means to change who wins it.
type fig5Winners struct {
	Seed  int64        `json:"seed"`
	Quick bool         `json:"quick"`
	Cells []fig5Winner `json:"cells"`
}

type fig5Winner struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	Winner    string `json:"winner"`
}

//go:embed testdata/fig5_winners.json
var fig5WinnersJSON []byte

// checkFig5Winners fails, naming the cell, if GraphSD is no longer fastest on
// the device clock in a cell the committed file says it held. Like the async
// gate it is enforced only when the run reproduces the file's configuration;
// cells the run left out (a -datasets filter) are not checked.
func checkFig5Winners(cfg *Config, got []fig5Winner) error {
	var committed fig5Winners
	if err := json.Unmarshal(fig5WinnersJSON, &committed); err != nil {
		return fmt.Errorf("harness: corrupt committed Figure 5 winners: %w", err)
	}
	if cfg.Quick != committed.Quick || cfg.Seed != committed.Seed || cfg.profile() != storage.ScaledHDD {
		return nil
	}
	for _, held := range committed.Cells {
		for _, c := range got {
			if held.Winner == "graphsd" && c.Dataset == held.Dataset && c.Algorithm == held.Algorithm && c.Winner != "graphsd" {
				return fmt.Errorf("harness: Figure 5 cell %s/%s: GraphSD held it, now %s has the least device time",
					c.Dataset, c.Algorithm, c.Winner)
			}
		}
	}
	return nil
}

// runFig5 regenerates Figure 5 (normalized execution time of GraphSD,
// HUS-Graph and Lumos on every dataset × algorithm) and Table 4 (absolute
// GraphSD times), then holds the run to the committed per-cell winners.
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
	var winners []fig5Winner
	for _, ds := range dss {
		e, err := newEnv(cfg, ds)
		if err != nil {
			return err
		}
		absRow := []string{ds.Name}
		for _, alg := range PaperAlgorithms() {
			gsd, err := e.run("graphsd", alg)
			if err != nil {
				return err
			}
			hus, err := e.run("husgraph", alg)
			if err != nil {
				return err
			}
			lum, err := e.run("lumos", alg)
			if err != nil {
				return err
			}
			winner := fig5Winner{ds.Name, alg.Name, "graphsd"}
			if hus.IOTime() < gsd.IOTime() && hus.IOTime() <= lum.IOTime() {
				winner.Winner = "husgraph"
			} else if lum.IOTime() < gsd.IOTime() {
				winner.Winner = "lumos"
			}
			winners = append(winners, winner)
			g, h, l := gsd.ExecTime(), hus.ExecTime(), lum.ExecTime()
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
	return checkFig5Winners(cfg, winners)
}

// runFig6 regenerates Figure 6: the I/O vs vertex-update breakdown of each
// system's execution time on the Twitter stand-in.
func runFig6(cfg *Config, w io.Writer) error {
	ds, err := cfg.dataset("twitter-sim")
	if err != nil {
		return err
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 6 — runtime breakdown on "+ds.Name,
		"algorithm", "system", "total", "disk I/O", "I/O share", "vertex update")
	var gsdIO, husIO, lumIO time.Duration
	for _, alg := range PaperAlgorithms() {
		for _, sys := range []string{"graphsd", "husgraph", "lumos"} {
			res, err := e.run(sys, alg)
			if err != nil {
				return err
			}
			t.AddRow(alg.Name, sys, metrics.Dur(res.ExecTime()),
				metrics.Dur(res.IOTime()), metrics.Pct(res.IOTime(), res.ExecTime()),
				metrics.Dur(res.ComputeTime))
			switch sys {
			case "graphsd":
				gsdIO += res.IOTime()
			case "husgraph":
				husIO += res.IOTime()
			case "lumos":
				lumIO += res.IOTime()
			}
		}
	}
	if husIO > 0 && lumIO > 0 {
		t.AddNote("GraphSD disk I/O time is %.0f%% of HUS-Graph and %.0f%% of Lumos (paper: 73%% and 49%%)",
			100*float64(gsdIO)/float64(husIO), 100*float64(gsdIO)/float64(lumIO))
	}
	return t.Render(w)
}

// runFig7 regenerates Figure 7: I/O traffic on the Twitter and UK stand-ins.
func runFig7(cfg *Config, w io.Writer) error {
	t := metrics.NewTable("Figure 7 — I/O traffic",
		"dataset", "algorithm", "GraphSD", "HUS-Graph", "Lumos")
	var sumHUS, sumLumos float64
	var count int
	for _, name := range []string{"twitter-sim", "uk-sim"} {
		ds, err := cfg.dataset(name)
		if err != nil {
			return err
		}
		e, err := newEnv(cfg, ds)
		if err != nil {
			return err
		}
		for _, alg := range PaperAlgorithms() {
			gsd, err := e.run("graphsd", alg)
			if err != nil {
				return err
			}
			hus, err := e.run("husgraph", alg)
			if err != nil {
				return err
			}
			lum, err := e.run("lumos", alg)
			if err != nil {
				return err
			}
			t.AddRow(name, alg.Name,
				storage.FormatBytes(gsd.IO.TotalBytes()),
				storage.FormatBytes(hus.IO.TotalBytes()),
				storage.FormatBytes(lum.IO.TotalBytes()))
			sumHUS += float64(hus.IO.TotalBytes()) / float64(gsd.IO.TotalBytes())
			sumLumos += float64(lum.IO.TotalBytes()) / float64(gsd.IO.TotalBytes())
			count++
		}
	}
	if count > 0 {
		t.AddNote("traffic vs GraphSD: HUS-Graph avg %.2fx, Lumos avg %.2fx (paper: 1.6x and 5.5x)",
			sumHUS/float64(count), sumLumos/float64(count))
	}
	return t.Render(w)
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
	for _, ds := range dss {
		e, err := newEnv(cfg, ds)
		if err != nil {
			return err
		}
		times := map[string]time.Duration{}
		written := map[string]int64{}
		for _, sys := range []string{"husgraph", "graphsd", "lumos"} {
			if _, err := e.layout(sys, false); err != nil {
				return err
			}
			p := e.preps[sys]
			times[sys] = p.simTime
			written[sys] = p.io.WriteBytes()
		}
		for _, sys := range []string{"husgraph", "graphsd", "lumos"} {
			t.AddRow(ds.Name, sys, metrics.Dur(times[sys]),
				storage.FormatBytes(written[sys]),
				metrics.Ratio(times[sys], times["lumos"]))
		}
	}
	t.AddNote("paper: HUS-Graph ≈ 1.8x and GraphSD ≈ 1.3x the preprocessing time of Lumos")
	return t.Render(w)
}

// runFig9 regenerates Figure 9: GraphSD against its own ablations b1
// (no cross-iteration updates) and b2 (no selective loading) on the
// Twitter stand-in, in execution time and I/O traffic. b2 pins the full
// model, which here reads live rows only: it is not the paper's b2, which
// streams every block.
func runFig9(cfg *Config, w io.Writer) error {
	ds, err := cfg.dataset("twitter-sim")
	if err != nil {
		return err
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 9 — update-strategy ablations on "+ds.Name,
		"algorithm", "variant", "exec time", "vs graphsd", "I/O traffic", "traffic ratio")
	for _, alg := range PaperAlgorithms() {
		base, err := e.run("graphsd", alg)
		if err != nil {
			return err
		}
		t.AddRow(alg.Name, "graphsd", metrics.Dur(base.ExecTime()), "1.00x",
			storage.FormatBytes(base.IO.TotalBytes()), "1.00x")
		for _, variant := range []string{"graphsd-b1", "graphsd-b2"} {
			res, err := e.run(variant, alg)
			if err != nil {
				return err
			}
			t.AddRow(alg.Name, variant, metrics.Dur(res.ExecTime()),
				metrics.Ratio(res.ExecTime(), base.ExecTime()),
				storage.FormatBytes(res.IO.TotalBytes()),
				metrics.RatioF(float64(res.IO.TotalBytes()), float64(base.IO.TotalBytes())))
		}
	}
	t.AddNote("paper: GraphSD outruns b1 by 1.7x and b2 by 2.8x; traffic 1.6x / 5.4x lower")
	t.AddNote("b2 here is the full model over live rows — every full pass skips source intervals with no active vertex — not the paper's read-everything b2")
	return t.Render(w)
}

// runFig10 regenerates Figure 10: per-iteration execution time of CC on
// the UKUnion stand-in under the adaptive scheduler versus the two forced
// models; the adaptive line must track the lower envelope.
func runFig10(cfg *Config, w io.Writer) error {
	ds, err := cfg.dataset("ukunion-sim")
	if err != nil {
		return err
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		return err
	}
	alg := PaperAlgorithms()[2] // CC
	adaptive, err := e.run("graphsd", alg)
	if err != nil {
		return err
	}
	full, err := e.run("graphsd-b3", alg)
	if err != nil {
		return err
	}
	ondemand, err := e.run("graphsd-b4", alg)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 10 — per-iteration time, CC on "+ds.Name,
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
			better := adaptive.IterStats[i].Time()
			if i < len(full.IterStats) && i < len(ondemand.IterStats) {
				lower := full.IterStats[i].Time()
				if ondemand.IterStats[i].Time() < lower {
					lower = ondemand.IterStats[i].Time()
				}
				// Allow 25% slack: iteration boundaries of FCIU pairs shift.
				if float64(better) <= 1.25*float64(lower) {
					wins++
				}
			}
		}
		t.AddRow(fmt.Sprint(i), active, cell(adaptive.IterStats, i), path,
			cell(full.IterStats, i), cell(ondemand.IterStats, i))
	}
	t.AddNote("totals — adaptive %v, full model over live rows %v, on-demand-only %v",
		metrics.Dur(adaptive.ExecTime()), metrics.Dur(full.ExecTime()), metrics.Dur(ondemand.ExecTime()))
	t.AddNote("adaptive tracked the per-iteration lower envelope in %d/%d comparable iterations", wins, iters)
	return t.Render(w)
}

// runFig11 regenerates Figure 11: the CPU overhead of the benefit
// evaluation against the I/O time it saves relative to the forced models.
func runFig11(cfg *Config, w io.Writer) error {
	ds, err := cfg.dataset("twitter-sim")
	if err != nil {
		return err
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 11 — scheduling overhead vs reduced I/O time on "+ds.Name,
		"algorithm", "evaluation overhead", "I/O saved vs full, live rows", "I/O saved vs on-demand-only")
	for _, alg := range PaperAlgorithms() {
		adaptive, err := e.run("graphsd", alg)
		if err != nil {
			return err
		}
		full, err := e.run("graphsd-b3", alg)
		if err != nil {
			return err
		}
		ondemand, err := e.run("graphsd-b4", alg)
		if err != nil {
			return err
		}
		savedFull := full.IOTime() - adaptive.IOTime()
		savedOD := ondemand.IOTime() - adaptive.IOTime()
		t.AddRow(alg.Name, metrics.Dur(adaptive.SchedulerOverhead), metrics.Dur(savedFull), metrics.Dur(savedOD))
	}
	t.AddNote("paper: overhead negligible (e.g. PR-D: 3.4s evaluation vs 158s I/O saved)")
	t.AddNote("the full model here reads live rows only, not every block as the paper's does, so the first column is smaller than the paper's saving")
	return t.Render(w)
}

// runFig12 regenerates Figure 12: execution time with and without the
// secondary sub-block buffering scheme on the UKUnion stand-in.
func runFig12(cfg *Config, w io.Writer) error {
	ds, err := cfg.dataset("ukunion-sim")
	if err != nil {
		return err
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 12 — buffering scheme on "+ds.Name,
		"algorithm", "with buffering", "without", "improvement", "buffer hits", "bytes saved")
	for _, alg := range PaperAlgorithms() {
		with, err := e.run("graphsd", alg)
		if err != nil {
			return err
		}
		without, err := e.run("graphsd-nobuf", alg)
		if err != nil {
			return err
		}
		imp := "—"
		if without.ExecTime() > 0 {
			imp = fmt.Sprintf("%.0f%%", 100*(1-float64(with.ExecTime())/float64(without.ExecTime())))
		}
		t.AddRow(alg.Name, metrics.Dur(with.ExecTime()), metrics.Dur(without.ExecTime()),
			imp, fmt.Sprint(with.Buffer.Hits), storage.FormatBytes(with.Buffer.BytesSaved))
	}
	t.AddNote("paper: buffering improves performance by up to 21%%")
	return t.Render(w)
}
