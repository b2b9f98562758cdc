package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var benchBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "graphbench-e2e-*")
	if err != nil {
		panic(err)
	}
	benchBin = filepath.Join(dir, "graphbench")
	out, err := exec.Command("go", "build", "-o", benchBin,
		"github.com/graphsd/graphsd/cmd/graphbench").CombinedOutput()
	if err != nil {
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestListExperiments(t *testing.T) {
	out, err := exec.Command(benchBin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, id := range []string{"table3", "fig5", "fig10", "fig12", "ext-storage"} {
		if !strings.Contains(string(out), id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestQuickExperiment(t *testing.T) {
	out, err := exec.Command(benchBin, "-quick", "-experiment", "table3").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "twitter-sim") {
		t.Fatalf("table3 output: %s", out)
	}
}

func TestDatasetFilter(t *testing.T) {
	out, err := exec.Command(benchBin, "-quick", "-experiment", "fig8",
		"-datasets", "twitter-sim").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "twitter-sim") || strings.Contains(s, "uk-sim") {
		t.Fatalf("filter not applied:\n%s", s)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if out, err := exec.Command(benchBin, "-experiment", "fig99").CombinedOutput(); err == nil {
		t.Fatalf("unknown experiment succeeded:\n%s", out)
	}
	if out, err := exec.Command(benchBin, "-profile", "floppy").CombinedOutput(); err == nil {
		t.Fatalf("unknown profile succeeded:\n%s", out)
	}
}

// TestRecordReproducesTheCommittedRows: -record over a copy of the committed
// table rewrites Figure 8's quick rows from the run, which reproduces them, so
// the file comes back byte for byte; a dataset filter, which would record part
// of a figure, is refused and leaves the file alone.
func TestRecordReproducesTheCommittedRows(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "expectations.json"))
	if err != nil {
		t.Fatal(err)
	}
	table := filepath.Join(t.TempDir(), "expectations.json")
	if err := os.WriteFile(table, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(benchBin, "-quick", "-experiment", "fig8", "-record", table).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := exec.Command(benchBin, "-quick", "-experiment", "fig8", "-datasets", "twitter-sim", "-record", table).CombinedOutput(); err == nil {
		t.Fatalf("recording a filtered run succeeded:\n%s", out)
	}
	got, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(committed) {
		t.Fatalf("recording Figure 8 changed the committed table:\n%s", got)
	}
}
