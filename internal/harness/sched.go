package harness

import (
	"fmt"
	"io"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/metrics"
)

// schedWarmup is the number of observed iterations the EWMA gets to
// converge before mispredictions count against the tolerance. With
// alpha=0.5 four observations shrink the initial model error 16x.
const schedWarmup = 4

// runSchedAccuracy is the Figure-10 companion study for the self-calibrating
// scheduler. Three checks, all hard-enforced:
//
//  1. Envelope — the adaptive scheduler's total simulated I/O on CC must
//     track min(always-full, always-on-demand) within the expectation
//     table's io_over_envelope bound.
//  2. Accuracy — on a long fixed-frontier PR run the per-iteration
//     misprediction ratio |predicted−actual|/actual must drop below the
//     table's post_warmup_mispredict bound once the EWMA correction has seen
//     schedWarmup observations. The final iteration is excluded: a trailing
//     full-single pass starts from a different buffer state than the
//     steady fciu cadence the correction factor was trained on.
//  3. Scattered frontier — dead-row skipping leaves the on-demand model one
//     niche, a small frontier with an active vertex in every interval, and
//     no paper dataset's traversal stays in it. BFS over gen.Braid does for
//     its whole length: the adaptive run must take SCIU there, beat the full
//     model, and return forced-full's outputs bit for bit.
//
// Everything is measured in simulated device time, so the assertions are
// deterministic across hosts.
func runSchedAccuracy(cfg *Config, w io.Writer) error {
	e, err := cfg.env("ukunion-sim")
	if err != nil {
		return err
	}

	// Envelope: CC flips models as the frontier decays, so the adaptive
	// run only stays near the lower envelope if its decisions are right.
	// These are Figure 10's cells.
	cc := PaperAlgorithms()[2]
	rs, err := e.runEach(cc, "graphsd", "graphsd-b2", "graphsd-b4")
	if err != nil {
		return err
	}
	adaptive, full, ondemand := rs[0], rs[1], rs[2]
	minIO := min(full.IOTime(), ondemand.IOTime())
	envelope := 1.0
	if minIO > 0 {
		envelope = float64(adaptive.IOTime()) / float64(minIO)
	}

	// Accuracy: PR keeps every vertex active, so after the first pass the
	// per-iteration I/O is steady and the EWMA correction must converge
	// onto it. 12 iterations leave several post-warmup samples to check.
	pr := Algorithm{"PR-12", false, func(graph.VertexID) core.Program {
		return &algorithms.PageRank{Iterations: 12}
	}}
	prRes, err := e.run("graphsd", pr)
	if err != nil {
		return err
	}

	t := metrics.NewTable("Scheduler accuracy — PR(12) on "+e.ds.Name,
		"iteration", "path", "predicted", "actual I/O", "mispredict", "checked")
	last := len(prRes.IterStats) - 1
	observed := 0
	worst := 0.0
	for _, st := range prRes.IterStats {
		if st.Predicted <= 0 {
			continue // fciu-2 executes the previous decision; never observed
		}
		observed++
		checked := observed > schedWarmup && st.Index != last
		if checked {
			worst = max(worst, st.Mispredict)
		}
		mark := "—"
		if checked {
			mark = "yes"
		}
		t.AddRow(fmt.Sprint(st.Index), st.Path, metrics.Dur(st.Predicted),
			metrics.Dur(st.IOTime), fmt.Sprintf("%.1f%%", 100*st.Mispredict), mark)
	}
	acc := prRes.SchedAccuracy
	t.AddNote("CC totals — adaptive %v, full model over live rows %v, on-demand-only %v: envelope %.2fx",
		metrics.Dur(adaptive.IOTime()), metrics.Dur(full.IOTime()), metrics.Dur(ondemand.IOTime()), envelope)
	t.AddNote("post-warmup worst mispredict %.1f%%; corrections full=%.2f on-demand=%.2f",
		100*worst, acc.CorrFull, acc.CorrOnDemand)
	if err := t.Render(w); err != nil {
		return err
	}
	if err := runScatteredFrontier(cfg, w); err != nil {
		return err
	}

	if observed <= schedWarmup {
		return fmt.Errorf("harness: only %d observed iterations, need > %d for a post-warmup check",
			observed, schedWarmup)
	}
	return cfg.hold("fig10-sched", []observation{
		{e.ds.Name, cc.Name, "graphsd", "io_over_envelope", envelope},
		{e.ds.Name, pr.Name, "graphsd", "post_warmup_mispredict", worst},
	})
}

// runScatteredFrontier is check 3 of runSchedAccuracy.
func runScatteredFrontier(cfg *Config, w io.Writer) error {
	p, per, steps, fill := 8, 8192, 24, 600000
	if cfg.Quick {
		p, per, steps, fill = 4, 2048, 12, 60000
	}
	e, err := newEnv(cfg, Dataset{Name: "braid", Build: func(s int64) (*graph.Graph, error) {
		return gen.Braid(p, per, steps, fill, s)
	}})
	if err != nil {
		return err
	}
	e.p, e.source = p, 0 // the braid's own intervals, and the vertex its chains start from
	rs, err := e.runEach(bfs, "graphsd", "graphsd-b2")
	if err != nil {
		return err
	}
	adaptive, full := rs[0], rs[1]

	t := metrics.NewTable(fmt.Sprintf("Scattered frontier — BFS on braid (%d chains through %d intervals)", p, p),
		"iteration", "active", "adaptive", "path", "C_s", "C_r", "full, live rows (b3)")
	sciu, next := 0, 0
	for i, st := range adaptive.IterStats {
		if st.Path == "sciu" {
			sciu++
		}
		cs, cr, fullIO := "—", "—", "—"
		if d := adaptive.Decisions; next < len(d) && d[next].Iteration == st.Index {
			cs, cr = metrics.Dur(d[next].CostFull), metrics.Dur(d[next].CostOnDemand)
			next++
		}
		if i < len(full.IterStats) {
			fullIO = metrics.Dur(full.IterStats[i].IOTime)
		}
		t.AddRow(fmt.Sprint(st.Index), fmt.Sprint(st.Active), metrics.Dur(st.IOTime), st.Path, cs, cr, fullIO)
	}
	t.AddNote("totals — adaptive %v in %d/%d on-demand iterations, full model over live rows %v (%d dead sub-blocks skipped: every interval holds an active vertex after iteration 0)",
		metrics.Dur(adaptive.IOTime()), sciu, adaptive.Iterations, metrics.Dur(full.IOTime()), full.SEM.BlocksSkipped)
	if err := t.Render(w); err != nil {
		return err
	}
	if sciu < steps {
		return fmt.Errorf("harness: adaptive BFS on the braid took SCIU in %d of %d iterations, want at least %d", sciu, adaptive.Iterations, steps)
	}
	if adaptive.IOTime() >= full.IOTime() {
		return fmt.Errorf("harness: adaptive I/O %v on the braid, full model %v — selective reads bought nothing", adaptive.IOTime(), full.IOTime())
	}
	if !identicalOutputs(adaptive.Outputs, full.Outputs) || adaptive.Iterations != full.Iterations {
		return fmt.Errorf("harness: adaptive BFS on the braid differs from the forced-full run")
	}
	return nil
}
