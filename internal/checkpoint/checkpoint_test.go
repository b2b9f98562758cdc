package checkpoint

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func sampleState() *State {
	return &State{
		Algorithm:        "pagerank",
		NumVertices:      100,
		P:                4,
		Iteration:        7,
		SecondaryPending: true,
		Values:           []float64{1.5, -2.25, math.Inf(1), 0, math.SmallestNonzeroFloat64},
		Aux:              []float64{0.25, 0.5},
		AccNext:          []float64{3, 2, 1},
		Active:           []uint64{0xdeadbeef, 0, ^uint64(0)},
		TouchedNext:      []uint64{1, 2, 3, 4},
		Threads:          6,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleState()
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists false after Save")
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestNilAuxRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleState()
	want.Aux = nil
	want.SecondaryPending = false
	want.Threads = 0 // as written before the thread count was recorded
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Aux != nil || got.SecondaryPending {
		t.Fatalf("nil aux round trip: %+v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	first := sampleState()
	if err := Save(dir, first); err != nil {
		t.Fatal(err)
	}
	second := sampleState()
	second.Iteration = 9
	second.Values[0] = 42
	if err := Save(dir, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 9 || got.Values[0] != 42 {
		t.Fatalf("second save not visible: %+v", got)
	}
}

func TestLoadRejectsCorruptBody(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, sampleState()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(Path(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "crc32c") {
		t.Fatalf("corrupt body loaded: %v", err)
	}
}

func TestLoadRejectsBadMagicAndTruncation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir), []byte("NOTACKPT????body"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic loaded: %v", err)
	}
	if err := os.WriteFile(Path(dir), []byte("GSD"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated file loaded: %v", err)
	}
}

func TestLoadMissing(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("Exists true for empty dir")
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
	if err := Remove(dir); err != nil {
		t.Fatalf("Remove of missing checkpoint: %v", err)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, sampleState()); err != nil {
		t.Fatal(err)
	}
	if err := Remove(dir); err != nil {
		t.Fatal(err)
	}
	if Exists(dir) {
		t.Fatal("checkpoint survives Remove")
	}
}
