package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

func quickConfig(t *testing.T) *Config {
	t.Helper()
	prof := storage.ScaledHDD
	return &Config{WorkDir: t.TempDir(), Seed: 1, Quick: true, Profile: &prof}
}

func TestDatasetsBothScales(t *testing.T) {
	for _, quick := range []bool{true, false} {
		dss := Datasets(quick)
		if len(dss) != 5 {
			t.Fatalf("quick=%t: %d datasets, want 5", quick, len(dss))
		}
		names := map[string]bool{}
		for _, d := range dss {
			names[d.Name] = true
		}
		for _, want := range []string{"twitter-sim", "sk-sim", "uk-sim", "ukunion-sim", "kron-sim"} {
			if !names[want] {
				t.Errorf("quick=%t: missing dataset %s", quick, want)
			}
		}
	}
	// Quick datasets must build and be smaller than full ones.
	q := Datasets(true)
	f := Datasets(false)
	for i := range q {
		gq, err := q[i].Build(1)
		if err != nil {
			t.Fatal(err)
		}
		gf, err := f[i].Build(1)
		if err != nil {
			t.Fatal(err)
		}
		if gq.NumEdges() >= gf.NumEdges() {
			t.Errorf("%s: quick (%d edges) not smaller than full (%d)", q[i].Name, gq.NumEdges(), gf.NumEdges())
		}
	}
}

func TestConfigDatasetFilter(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Datasets = []string{"uk-sim", "twitter-sim"}
	got, err := cfg.selectedDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "uk-sim" || got[1].Name != "twitter-sim" {
		t.Fatalf("filter = %v", got)
	}
	cfg.Datasets = []string{"nope"}
	if _, err := cfg.selectedDatasets(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := cfg.dataset("nope"); err == nil {
		t.Fatal("dataset() accepted unknown name")
	}
}

func TestPaperAlgorithms(t *testing.T) {
	algs := PaperAlgorithms()
	if len(algs) != 4 {
		t.Fatalf("%d algorithms, want 4 (PR, PR-D, CC, SSSP)", len(algs))
	}
	if !algs[3].Weighted {
		t.Fatal("SSSP not marked weighted")
	}
	for _, a := range algs {
		if a.New(0) == nil {
			t.Fatalf("%s: nil program", a.Name)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := []string{"table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig10-sched", "fig11", "fig12", "fig-sem", "fig-async", "ext-storage", "ext-psweep"}
	exps := Experiments()
	if len(exps) != len(ids) {
		t.Fatalf("%d experiments, want %d", len(exps), len(ids))
	}
	for i, id := range ids {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestEnvRunUnknownSystem(t *testing.T) {
	cfg := quickConfig(t)
	ds, err := cfg.dataset("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.run("nope", PaperAlgorithms()[0]); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := e.layout("nope", false); err == nil {
		t.Fatal("unknown layout system accepted")
	}
}

func TestLayoutsAreCached(t *testing.T) {
	cfg := quickConfig(t)
	ds, err := cfg.dataset("twitter-sim")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := e.layout("graphsd", false)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := e.layout("graphsd", false)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("layout rebuilt instead of cached")
	}
}

// TestAllExperimentsQuick runs the full experiment suite at quick scale and
// sanity-checks the rendered output. This is the integration test of the
// whole repository: generators → preprocessors → engines → reports.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow; skipped with -short")
	}
	cfg := quickConfig(t)
	var buf bytes.Buffer
	if err := RunAll(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 3", "Figure 5", "Table 4", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12",
		"twitter-sim", "husgraph", "lumos", "sciu",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "—x") {
		t.Error("experiment output contains malformed numbers")
	}
}

// TestFig5WinnersGate: the gate TestAllExperimentsQuick runs Figure 5 under
// names the cell when a system loses one the expectation table says it held,
// and is silent on the committed winners themselves and on configurations the
// rows were not recorded under.
func TestFig5WinnersGate(t *testing.T) {
	cfg := quickConfig(t)
	rows, err := cfg.expectations("fig5")
	if err != nil {
		t.Fatal(err)
	}
	held := slices.IndexFunc(rows, func(r expectation) bool { return r.Least == "graphsd" })
	if len(rows) != 20 || held < 0 {
		t.Fatalf("the table has %d Figure 5 rows (want 5 datasets × 4 algorithms), GraphSD holds one: %t", len(rows), held >= 0)
	}
	// A run in which every cell's recorded holder reads 1 and the others 2.
	observe := func(lost int) []observation {
		var obs []observation
		for k, r := range rows {
			for _, sys := range comparison {
				v := 2.0
				if (sys == r.Least) != (k == lost) {
					v = 1
				}
				obs = append(obs, observation{r.Dataset, r.Algorithm, sys, r.Metric, v})
			}
		}
		return obs
	}
	if err := cfg.hold("fig5", observe(-1)); err != nil {
		t.Fatalf("gate trips on the committed winners: %v", err)
	}
	lost := rows[held]
	err = cfg.hold("fig5", observe(held))
	if err == nil || !strings.Contains(err.Error(), "fig5 "+lost.Dataset+"/"+lost.Algorithm) {
		t.Fatalf("GraphSD lost %s/%s: gate said %v", lost.Dataset, lost.Algorithm, err)
	}
	reseeded := *cfg
	reseeded.Seed = 2
	if err := reseeded.hold("fig5", observe(held)); err != nil {
		t.Fatalf("gate enforced at a seed the rows were not recorded at: %v", err)
	}
}

// TestSEMExperiment runs the skipping and compressed-tier study on its own:
// it enforces the skip/byte-reduction and effective-capacity floors, and that
// the delta layout's payload buffer serves no fewer hits than the raw one.
func TestSEMExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment is slow; skipped with -short")
	}
	cfg := quickConfig(t)
	exp, err := ByID("fig-sem")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.Run(cfg, &buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"State-aware skipping", "read + skipped", "sparse", "dense", "hits raw / delta", "effective capacity", "compressed hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAsyncExperiment runs the asynchronous-execution study on its own: it
// enforces the device-byte reduction, block-activation, and baseline
// regression gates.
func TestAsyncExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment is slow; skipped with -short")
	}
	cfg := quickConfig(t)
	exp, err := ByID("fig-async")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.Run(cfg, &buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"Asynchronous", "sparse", "reduction", "BSP baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSchedAccuracyExperiment runs the scheduler-accuracy study on its own:
// it enforces the envelope and post-warmup misprediction tolerances.
func TestSchedAccuracyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment is slow; skipped with -short")
	}
	cfg := quickConfig(t)
	exp, err := ByID("fig10-sched")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exp.Run(cfg, &buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"Scheduler accuracy", "envelope", "mispredict", "corrections", "Scattered frontier", "sciu"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFiguresShareCells: the figures are projections of one set of measured
// cells. Every system's runner is counted through the table, and after RunAll
// no (layout, program, options) was run twice; and Figure 6 prints for
// (twitter-sim, graphsd, PR) the total Table 4 printed, measured compute and all.
func TestFiguresShareCells(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow; skipped with -short")
	}
	cfg := quickConfig(t)
	ran := map[string]int{}
	for _, sys := range core.Systems() {
		run := sys.Run
		sys.Run = func(ctx context.Context, l *partition.Layout, prog core.Program, opts core.Options) (*core.Result, error) {
			ran[fmt.Sprintf("%s %T%+v %+v", l.Dev.Dir(), prog, prog, opts)]++
			return run(ctx, l, prog, opts)
		}
		cfg.systems = append(cfg.systems, sys)
	}
	var buf bytes.Buffer
	if err := RunAll(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if len(ran) < 78 {
		t.Errorf("%d cells ran through the table, Figures 5–12 alone need 78", len(ran))
	}
	for cell, n := range ran {
		if n != 1 {
			t.Errorf("cell %s ran %d times", cell, n)
		}
	}
	field := func(section, rowPrefix string, k int) string {
		t.Helper()
		_, rest, ok := strings.Cut(buf.String(), section)
		if !ok {
			t.Fatalf("no %q in the output", section)
		}
		for _, line := range strings.Split(rest, "\n") {
			if f := strings.Fields(line); strings.HasPrefix(strings.Join(f, " "), rowPrefix) {
				return f[k]
			}
		}
		t.Fatalf("no row %q under %q", rowPrefix, section)
		return ""
	}
	fig5 := field("== Table 4", "twitter-sim", 1)
	fig6 := field("== Figure 6", "PR graphsd", 2)
	if fig5 != fig6 {
		t.Errorf("twitter-sim/graphsd/PR total: Table 4 printed %s, Figure 6 %s", fig5, fig6)
	}
}

// TestBrokenEngineFailsByFigure: the expectation table is a gate on the engine,
// not on the harness. A graphsd row that takes the on-demand model whenever the
// scheduler would have chosen fails Figures 10 and 11; one that never computes
// across iterations fails Figure 9 — each naming its figure.
func TestBrokenEngineFailsByFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, tc := range []struct {
		name    string
		breakIt func(*core.Options)
		figures []string
	}{
		{"always on-demand", func(o *core.Options) {
			if o.ForceModel == nil {
				o.ForceModel = core.ForceOnDemand
			}
		}, []string{"fig10", "fig11"}},
		{"no cross-iteration", func(o *core.Options) { o.DisableCrossIteration = true }, []string{"fig9"}},
	} {
		for _, id := range tc.figures {
			cfg := quickConfig(t)
			cfg.systems = []core.System{{Name: "graphsd", Build: partition.Build, Run: func(ctx context.Context, l *partition.Layout, prog core.Program, opts core.Options) (*core.Result, error) {
				tc.breakIt(&opts)
				return core.RunContext(ctx, l, prog, opts)
			}}}
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			err = exp.Run(cfg, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "expectation "+id+" ") {
				t.Errorf("%s: %s said %v, want a missed expectation naming it", tc.name, id, err)
			}
		}
	}
}

// TestRecordRewritesTheFiguresItRan: a Record run is held to the always rows
// only, and the table it returns swaps in — for its seed and scale, figure by
// figure — the rows its observations call for: the least and most system of
// an ordered cell, a bound at the observed value rounded outward (slack only
// on a positive one). Everything else in the table, the committed layout
// included, comes back as it was.
func TestRecordRewritesTheFiguresItRan(t *testing.T) {
	committed, err := parseTable(expectationsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := committed.marshal(); err != nil || string(out) != string(expectationsJSON) {
		t.Fatalf("the committed table is not in the layout -record writes (err %v)", err)
	}

	cfg := quickConfig(t)
	cfg.Record = true
	// Figure 8 with lumos writing the most of all: the committed rows would
	// fail it, a recording run takes it down.
	if err := cfg.hold("fig8", []observation{
		{"twitter-sim", "", "husgraph", "written_bytes", 2},
		{"twitter-sim", "", "graphsd", "written_bytes", 1},
		{"twitter-sim", "", "lumos", "written_bytes", 3},
	}); err != nil {
		t.Fatalf("a recording run was held to the recorded rows: %v", err)
	}
	if err := cfg.hold("fig11", []observation{
		{"twitter-sim", "PR", "graphsd", "io_saved_vs_on_demand_ns", 1234.5678},
		{"twitter-sim", "CC", "graphsd", "io_saved_vs_on_demand_ns", -7.0001},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := cfg.RecordedTable(expectationsJSON)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseTable(out)
	if err != nil {
		t.Fatal(err)
	}
	f := func(v float64) *float64 { return &v }
	want := map[string][]expectation{
		"fig8": {{Figure: "fig8", Dataset: "twitter-sim", Metric: "written_bytes", Least: "graphsd", Most: "lumos"}},
		"fig11": {
			{Figure: "fig11", Dataset: "twitter-sim", Algorithm: "PR", Metric: "io_saved_vs_on_demand_ns", AtLeast: f(1234.567), Slack: 2},
			{Figure: "fig11", Dataset: "twitter-sim", Algorithm: "CC", Metric: "io_saved_vs_on_demand_ns", AtLeast: f(-7.001)},
		},
	}
	for k, blk := range got.Recorded {
		old := committed.Recorded[k]
		if blk.Seed != old.Seed || blk.Quick != old.Quick {
			t.Fatalf("block %d is now seed %d quick %t", k, blk.Seed, blk.Quick)
		}
		for _, e := range Experiments() {
			rows, ran := want[e.ID]
			if !ran || !cfg.recordsAt(blk) {
				rows = slices.DeleteFunc(slices.Clone(old.Rows), func(r expectation) bool { return r.Figure != e.ID })
			}
			have := slices.DeleteFunc(slices.Clone(blk.Rows), func(r expectation) bool { return r.Figure != e.ID })
			if fmt.Sprint(jsonRows(t, have)) != fmt.Sprint(jsonRows(t, rows)) {
				t.Errorf("seed %d quick %t %s: rows %s, want %s", blk.Seed, blk.Quick, e.ID, jsonRows(t, have), jsonRows(t, rows))
			}
		}
	}

	// The committed Figure 8 rows hold a run by its least and its most writer.
	held := quickConfig(t)
	obs := []observation{
		{"twitter-sim", "", "husgraph", "written_bytes", 3},
		{"twitter-sim", "", "graphsd", "written_bytes", 2},
		{"twitter-sim", "", "lumos", "written_bytes", 1},
	}
	if err := held.hold("fig8", obs); err != nil {
		t.Fatalf("gate trips on the committed order: %v", err)
	}
	obs[1].value = 4
	if err := held.hold("fig8", obs); err == nil || !strings.Contains(err.Error(), "fig8 twitter-sim/ written_bytes: husgraph held the most") {
		t.Fatalf("graphsd out-wrote husgraph: gate said %v", err)
	}
}

func jsonRows(t *testing.T, rows []expectation) []string {
	t.Helper()
	var out []string
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}
