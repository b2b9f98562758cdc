package iosched

import (
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// rowConfig is testConfig with per-row costing: 4 rows of equal on-disk
// payload summing to the full edge set.
func rowConfig(numV int, numE int64) Config {
	cfg := testConfig(numV, numE)
	per := numE * int64(graph.EdgeBytes) / int64(cfg.P)
	cfg.RowDiskBytes = []int64{per, per, per, per}
	return cfg
}

func TestCostFullForSkipsDeadRows(t *testing.T) {
	cfg := rowConfig(1000, 50000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// All rows active: identical to the frontier-blind constant.
	all := bitset.NewActiveSet(1000)
	all.ActivateAll()
	if got, want := s.CostFullFor(all), s.CostFull(); got != want {
		t.Fatalf("all-active cost %v != CostFull %v", got, want)
	}

	// One active vertex: only its row's bytes are charged, so the cost
	// must drop strictly below the constant but stay above the pure
	// vertex-array cost.
	one := bitset.NewActiveSet(1000)
	one.Activate(0)
	sparse := s.CostFullFor(one)
	if sparse >= s.CostFull() {
		t.Fatalf("single-row cost %v not below CostFull %v", sparse, s.CostFull())
	}
	p := cfg.Profile
	vBytes := int64(1000) * graph.VertexValueBytes
	want := p.SeqCost(storage.SeqRead, vBytes+cfg.RowDiskBytes[0]) + p.SeqCost(storage.SeqWrite, vBytes)
	if sparse != want {
		t.Fatalf("single-row cost %v, want %v", sparse, want)
	}

	// Empty frontier: vertex arrays only.
	none := bitset.NewActiveSet(1000)
	floor := p.SeqCost(storage.SeqRead, vBytes) + p.SeqCost(storage.SeqWrite, vBytes)
	if got := s.CostFullFor(none); got != floor {
		t.Fatalf("empty-frontier cost %v, want vertex-array floor %v", got, floor)
	}
}

// TestNilRowDiskBytesPricesTheConstant: a config that carries no per-row
// bytes (bench/replay.go builds one) validates, and prices every frontier at
// the paper's constant C_s.
func TestNilRowDiskBytesPricesTheConstant(t *testing.T) {
	cfg := testConfig(1000, 50000)
	if cfg.RowDiskBytes != nil {
		t.Fatal("testConfig carries RowDiskBytes; the test needs one that does not")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config without RowDiskBytes rejected: %v", err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := bitset.NewActiveSet(1000)
	one.Activate(7)
	if got, want := s.CostFullFor(one), s.CostFull(); got != want {
		t.Fatalf("CostFullFor %v != CostFull %v without RowDiskBytes", got, want)
	}
	if d := s.Decide(0, one, uniformDegrees(1000, 50)); d.CostFull != s.CostFull() {
		t.Fatalf("decision CostFull %v, want the constant %v", d.CostFull, s.CostFull())
	}
	// No frontier to inspect: the constant, with or without per-row bytes.
	rows, err := New(rowConfig(1000, 50000))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []*Scheduler{s, rows} {
		if got, want := sched.CostFullFor(nil), sched.CostFull(); got != want {
			t.Fatalf("nil-frontier CostFullFor %v != CostFull %v", got, want)
		}
	}
}

func TestRowDiskBytesValidation(t *testing.T) {
	bad := testConfig(1000, 50000)
	bad.RowDiskBytes = []int64{1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("short RowDiskBytes accepted")
	}
	ok := rowConfig(1000, 50000)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecideUsesFrontierFullCost pins the Decision plumbing: a sparse
// frontier must be offered the reduced full cost, which can flip the model
// choice relative to the frontier-blind constant.
func TestDecideUsesFrontierFullCost(t *testing.T) {
	cfg := rowConfig(1000, 50000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := bitset.NewActiveSet(1000)
	one.Activate(0)
	d := s.Decide(0, one, uniformDegrees(1000, 50))
	if d.CostFull != s.CostFullFor(one) {
		t.Fatalf("decision CostFull %v, want frontier-aware %v", d.CostFull, s.CostFullFor(one))
	}
	if d.CostFull >= s.CostFull() {
		t.Fatalf("sparse-frontier decision cost %v not below constant %v", d.CostFull, s.CostFull())
	}
}

// TestValueTermFollowsTheFrontier: with EdgeCounts both formulas price the
// values of the live rows and of the intervals they reach through a non-empty
// sub-block (written back too); C_r's index term stays the whole index. Over
// an all-active frontier reaching every interval they are the paper's
// constants to the nanosecond, as they are without EdgeCounts.
func TestValueTermFollowsTheFrontier(t *testing.T) {
	cfg := rowConfig(1000, 50000)
	// Row 0 reaches interval 2 only; every interval is reached by some row.
	cfg.EdgeCounts = [][]int64{{0, 0, 7, 0}, {0, 3, 0, 0}, {1, 1, 1, 1}, {0, 0, 0, 9}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(rowConfig(1000, 50000))
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Profile
	deg := uniformDegrees(1000, 50)
	vBytes := int64(1000) * graph.VertexValueBytes
	paperOnDemand := func(seqB, ranB, seeks int64) time.Duration {
		return p.SeqCost(storage.RandRead, ranB) + time.Duration(seeks)*p.SeekLatency +
			p.SeqCost(storage.SeqRead, seqB) + p.SeqCost(storage.SeqRead, 2*vBytes) + p.SeqCost(storage.SeqWrite, vBytes)
	}

	all := bitset.NewActiveSet(1000)
	all.ActivateAll()
	seqB, ranB, seeks := s.EstimateOnDemand(all, deg)
	for name, sched := range map[string]*Scheduler{"edge counts": s, "no edge counts": plain} {
		if got, want := sched.CostFullFor(all), sched.CostFull(); got != want {
			t.Errorf("%s: all-active C_s %v, want the constant %v", name, got, want)
		}
		if got, want := sched.CostOnDemand(seqB, ranB, seeks, all), paperOnDemand(seqB, ranB, seeks); got != want {
			t.Errorf("%s: all-active C_r %v, want the paper's %v", name, got, want)
		}
	}

	// One vertex of interval 0: its values and interval 2's are read, interval
	// 2's written back — 250 vertices each — and the whole index consulted.
	one := bitset.NewActiveSet(1000)
	one.Activate(0)
	iv := int64(250) * graph.VertexValueBytes
	wantFull := p.SeqCost(storage.SeqRead, 2*iv+cfg.RowDiskBytes[0]) + p.SeqCost(storage.SeqWrite, iv)
	if got := s.CostFullFor(one); got != wantFull {
		t.Errorf("one-interval C_s %v, want %v", got, wantFull)
	}
	seqB, ranB, seeks = s.EstimateOnDemand(one, deg)
	wantOnDemand := p.SeqCost(storage.RandRead, ranB) + time.Duration(seeks)*p.SeekLatency +
		p.SeqCost(storage.SeqRead, seqB) + p.SeqCost(storage.SeqRead, 1000*graph.IndexEntryBytes+2*iv) +
		p.SeqCost(storage.SeqWrite, iv)
	if got := s.CostOnDemand(seqB, ranB, seeks, one); got != wantOnDemand {
		t.Errorf("one-interval C_r %v, want %v", got, wantOnDemand)
	}
	if d := s.Decide(0, one, deg); d.CostFull != wantFull || d.CostOnDemand != wantOnDemand {
		t.Errorf("decision priced %v / %v, want %v / %v", d.CostFull, d.CostOnDemand, wantFull, wantOnDemand)
	}

	for _, bad := range [][][]int64{{{1, 1, 1, 1}}, {{1}, {1}, {1}, {1}}} {
		cfg.EdgeCounts = bad
		if err := cfg.Validate(); err == nil {
			t.Errorf("edge counts shaped %dx%d accepted for P=4", len(bad), len(bad[0]))
		}
	}
}
