package harness

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

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
// names the cell when GraphSD loses one the committed file says it held, and
// is silent on the committed winners themselves and on configurations the file
// was not recorded under.
func TestFig5WinnersGate(t *testing.T) {
	cfg := quickConfig(t)
	var committed fig5Winners
	if err := json.Unmarshal(fig5WinnersJSON, &committed); err != nil {
		t.Fatal(err)
	}
	cells := committed.Cells
	held := slices.IndexFunc(cells, func(c fig5Winner) bool { return c.Winner == "graphsd" })
	if len(cells) != 20 || held < 0 {
		t.Fatalf("committed file has %d cells (want 5 datasets × 4 algorithms), GraphSD holds one: %t", len(cells), held >= 0)
	}
	if err := checkFig5Winners(cfg, cells); err != nil {
		t.Fatalf("gate trips on the committed winners: %v", err)
	}
	lost := cells[held]
	cells[held].Winner = "husgraph"
	err := checkFig5Winners(cfg, cells)
	if err == nil || !strings.Contains(err.Error(), lost.Dataset+"/"+lost.Algorithm) {
		t.Fatalf("GraphSD lost %s/%s: gate said %v", lost.Dataset, lost.Algorithm, err)
	}
	full := *cfg
	full.Quick = false
	if err := checkFig5Winners(&full, cells); err != nil {
		t.Fatalf("gate enforced at a scale the file was not recorded at: %v", err)
	}
}

// TestSEMExperiment runs the skipping and compressed-tier study on its own:
// it enforces the skip/byte-reduction and effective-capacity floors.
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
	for _, want := range []string{"State-aware skipping", "read + skipped", "sparse", "dense", "effective capacity", "compressed hits"} {
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
