package iosched

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/graphsd/graphsd/internal/bitset"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

func testConfig(numV int, numE int64) Config {
	return Config{
		Profile:         storage.HDD,
		NumVertices:     numV,
		NumEdges:        numE,
		EdgeRecordBytes: graph.EdgeBytes,
		P:               4,
	}
}

func uniformDegrees(n int, d uint32) []uint32 {
	deg := make([]uint32, n)
	for i := range deg {
		deg[i] = d
	}
	return deg
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(10, 100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig(10, 100)
	bad.EdgeRecordBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero record size accepted")
	}
	bad = testConfig(10, 100)
	bad.P = 0
	if err := bad.Validate(); err == nil {
		t.Error("P=0 accepted")
	}
	bad = testConfig(-1, 100)
	if err := bad.Validate(); err == nil {
		t.Error("negative vertices accepted")
	}
	bad = testConfig(10, 100)
	bad.Profile = storage.Profile{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestCostFullMatchesFormula(t *testing.T) {
	cfg := testConfig(1000, 50000)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vBytes := int64(1000 * graph.VertexValueBytes)
	eBytes := int64(50000 * graph.EdgeBytes)
	want := cfg.Profile.SeqCost(storage.SeqRead, vBytes+eBytes) +
		cfg.Profile.SeqCost(storage.SeqWrite, vBytes)
	if got := s.CostFull(); got != want {
		t.Fatalf("CostFull = %v, want %v", got, want)
	}
}

func TestEstimateSplitContiguousRun(t *testing.T) {
	s, _ := New(testConfig(100, 1000))
	active := bitset.NewActiveSet(100)
	// One contiguous run of 10 vertices, degree 5 each: 50 edges = 400 bytes.
	for v := 20; v < 30; v++ {
		active.Activate(v)
	}
	seqB, ranB, seeks := s.EstimateOnDemand(active, uniformDegrees(100, 5))
	totalWant := int64(10 * 5 * graph.EdgeBytes)
	if seqB+ranB != totalWant {
		t.Fatalf("split %d+%d != %d", seqB, ranB, totalWant)
	}
	// n=100, P=4 -> interval length 25: the run [20,30) crosses the
	// boundary at 25 and splits into two portions. Each portion's reads
	// touch at most P=4 sub-blocks of its row (and have plenty of edges),
	// so 4 seeks per portion; each portion's first vertex (degree 5) is
	// charged as random.
	if seeks != 8 {
		t.Fatalf("seeks = %d, want 8", seeks)
	}
	if ranB != 2*5*graph.EdgeBytes {
		t.Fatalf("ranBytes = %d, want first vertex of each portion", ranB)
	}
}

func TestEstimateSplitScatteredVertices(t *testing.T) {
	s, _ := New(testConfig(1000, 10000))
	active := bitset.NewActiveSet(1000)
	// 10 isolated vertices: 10 runs.
	for v := 0; v < 1000; v += 100 {
		active.Activate(v)
	}
	deg := uniformDegrees(1000, 3)
	seqB, ranB, seeks := s.EstimateOnDemand(active, deg)
	// Every vertex has degree 3, so the gaps between the isolated actives
	// carry on-disk edges and each active is its own portion. A degree-3
	// vertex occupies at most 3 sub-blocks of its row, so the per-portion
	// seek charge is capped at its edge count, not P.
	if seeks != 10*3 {
		t.Fatalf("seeks = %d, want 30", seeks)
	}
	// Each portion is a single vertex, so its whole payload is the "first
	// record" — all random, nothing sequential.
	if ranB != 10*3*graph.EdgeBytes {
		t.Fatalf("ranB = %d", ranB)
	}
	if seqB != 0 {
		t.Fatalf("seqB = %d", seqB)
	}
}

func TestEstimateZeroDegreeVertices(t *testing.T) {
	s, _ := New(testConfig(50, 0))
	active := bitset.NewActiveSet(50)
	active.Activate(7)
	seqB, ranB, seeks := s.EstimateOnDemand(active, uniformDegrees(50, 0))
	if seqB != 0 || ranB != 0 || seeks != 0 {
		t.Fatalf("zero-degree active vertex charged: seq=%d ran=%d seeks=%d", seqB, ranB, seeks)
	}
}

func TestDecideFewActivesPrefersOnDemand(t *testing.T) {
	// Large graph, one active vertex: on-demand must win.
	s, _ := New(testConfig(1_000_000, 16_000_000))
	active := bitset.NewActiveSet(1_000_000)
	active.Activate(123)
	d := s.Decide(0, active, uniformDegrees(1_000_000, 16))
	if d.Model != OnDemandIO {
		t.Fatalf("one active vertex chose %v (Cr=%v Cs=%v)", d.Model, d.CostOnDemand, d.CostFull)
	}
	if d.ActiveCount != 1 || d.Iteration != 0 {
		t.Fatalf("decision metadata wrong: %+v", d)
	}
}

func TestDecideAllActivePrefersFull(t *testing.T) {
	// Everything active and scattered seeks make on-demand lose: full wins.
	const n = 100_000
	s, _ := New(testConfig(n, 16*n))
	active := bitset.NewActiveSet(n)
	active.ActivateAll()
	d := s.Decide(0, active, uniformDegrees(n, 16))
	if d.Model != FullIO {
		t.Fatalf("full-active chose %v (Cr=%v Cs=%v)", d.Model, d.CostOnDemand, d.CostFull)
	}
}

func TestDecideCrossoverMonotonic(t *testing.T) {
	// As the active fraction grows from 0 to 1 with scattered vertices,
	// the decision must flip from on-demand to full exactly once.
	const n = 10_000
	s, _ := New(testConfig(n, 16*n))
	deg := uniformDegrees(n, 16)
	prev := OnDemandIO
	flips := 0
	for frac := 1; frac <= 100; frac++ {
		active := bitset.NewActiveSet(n)
		stride := 100 / frac
		if stride < 1 {
			stride = 1
		}
		for v := 0; v < n; v += stride {
			active.Activate(v)
		}
		d := s.Decide(frac, active, deg)
		if d.Model != prev {
			flips++
			prev = d.Model
		}
	}
	if prev != FullIO {
		t.Fatal("never switched to full I/O at 100% active")
	}
	if flips != 1 {
		t.Fatalf("decision flipped %d times, want exactly 1", flips)
	}
}

func TestHistoryAndOverhead(t *testing.T) {
	s, _ := New(testConfig(100, 1000))
	active := bitset.NewActiveSet(100)
	active.Activate(1)
	deg := uniformDegrees(100, 10)
	for i := 0; i < 5; i++ {
		s.Decide(i, active, deg)
	}
	h := s.History()
	if len(h) != 5 {
		t.Fatalf("history length %d", len(h))
	}
	for i, d := range h {
		if d.Iteration != i {
			t.Fatalf("history[%d].Iteration = %d", i, d.Iteration)
		}
	}
	if s.TotalOverhead() < 0 {
		t.Fatal("negative overhead")
	}
}

// TestAllActiveEstimateTakenOnce follows a PageRank run's scheduling — a
// Decide over the all-active frontier and an Observe of its charge per
// iteration — with one Scheduler and with one made to recompute its estimate
// before every Decide. Every decision but its Overhead is the same on both,
// and the first is a fresh Scheduler's; the all-active split is taken on the
// first Decide and kept. A frontier missing one vertex is priced afresh and
// leaves the kept split alone.
func TestAllActiveEstimateTakenOnce(t *testing.T) {
	g, err := gen.RMAT(12, 8, gen.Graph500, 3)
	if err != nil {
		t.Fatal(err)
	}
	n, deg := g.NumVertices, g.OutDegrees()
	cfg := testConfig(n, int64(len(g.Edges)))
	cfg.BlocksPerRow = []int{4, 3, 4, 2}
	cached, _ := New(cfg)
	recomputed, _ := New(cfg)
	all := bitset.NewActiveSet(n)
	all.ActivateAll()
	var kept *onDemandSplit
	for it := 0; it < 8; it++ {
		recomputed.allActive = nil
		got, want := cached.Decide(it, all, deg), recomputed.Decide(it, all, deg)
		got.Overhead, want.Overhead = 0, 0
		if got != want {
			t.Fatalf("iteration %d: decision %+v, recomputed %+v", it, got, want)
		}
		if it == 0 {
			fresh, _ := New(cfg)
			first := fresh.Decide(0, all, deg)
			first.Overhead = 0
			if got != first {
				t.Fatalf("first decision %+v, a fresh Scheduler's %+v", got, first)
			}
			kept = cached.allActive
		} else if cached.allActive != kept {
			t.Fatalf("iteration %d took the all-active split again", it)
		}
		// A charge off the prediction moves the correction factors.
		actual := got.Predicted * time.Duration(10+it) / 9
		cached.Observe(FullIO, actual)
		recomputed.Observe(FullIO, actual)
	}

	most := bitset.NewActiveSet(n)
	most.ActivateAll()
	for v := n / 2; ; v++ {
		if deg[v] > 0 {
			most.Deactivate(v)
			break
		}
	}
	fresh, _ := New(cfg)
	seq, ran, seeks := fresh.EstimateOnDemand(most, deg)
	d := cached.Decide(8, most, deg)
	if d.SeqBytes != seq || d.RanBytes != ran || d.Seeks != seeks {
		t.Fatalf("one vertex short: split %d/%d/%d, want %d/%d/%d", d.SeqBytes, d.RanBytes, d.Seeks, seq, ran, seeks)
	}
	if d.SeqBytes+d.RanBytes == kept.seqBytes+kept.ranBytes {
		t.Fatal("one vertex short: priced as the all-active frontier")
	}
	seq, ran, seeks = fresh.EstimateOnDemand(all, deg)
	if cached.allActive != kept || *kept != (onDemandSplit{seq, ran, seeks}) {
		t.Fatal("a partial frontier changed the kept all-active split")
	}
}

func TestModelString(t *testing.T) {
	if FullIO.String() != "full" || OnDemandIO.String() != "on-demand" {
		t.Fatal("model names wrong")
	}
}

// Property: the S_seq/S_ran split always conserves total active bytes, and
// seeks is bounded by the reference portion scan — at least one seek per
// edge-bearing portion, at most P per portion, and never more than the
// total active edge count (the per-portion charge is capped by the
// portion's edges).
func TestPropertySplitConservation(t *testing.T) {
	s, _ := New(testConfig(512, 5120))
	f := func(raw []uint16, degSeed []uint8) bool {
		const n = 512
		active := bitset.NewActiveSet(n)
		for _, r := range raw {
			active.Activate(int(r) % n)
		}
		deg := make([]uint32, n)
		for i := range deg {
			if len(degSeed) > 0 {
				deg[i] = uint32(degSeed[i%len(degSeed)]) % 20
			}
		}
		seqB, ranB, seeks := s.EstimateOnDemand(active, deg)
		// Reference scan: portions split at interval boundaries and at gaps
		// containing on-disk edges; zero-degree-only gaps merge.
		per := s.cfg.intervalLen()
		var want, activeEdges, portions int64
		prev := -2
		curIv, curEdges := -1, int64(0)
		endPortion := func() {
			if curEdges > 0 {
				portions++
			}
			curEdges = 0
		}
		active.ForEach(func(v int) bool {
			want += int64(deg[v]) * graph.EdgeBytes
			activeEdges += int64(deg[v])
			iv := v / per
			if iv != curIv || (v != prev+1 && gapHasEdges(deg, prev+1, v)) {
				endPortion()
			}
			curIv = iv
			curEdges += int64(deg[v])
			prev = v
			return true
		})
		endPortion()
		if seqB+ranB != want {
			return false
		}
		if seeks < portions || seeks > portions*4 {
			return false
		}
		return seeks <= activeEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decide always picks the cheaper predicted cost.
func TestPropertyDecidePicksCheaper(t *testing.T) {
	s, _ := New(testConfig(1024, 20480))
	f := func(raw []uint16) bool {
		const n = 1024
		active := bitset.NewActiveSet(n)
		for _, r := range raw {
			active.Activate(int(r) % n)
		}
		d := s.Decide(0, active, uniformDegrees(n, 20))
		if d.CostOnDemand <= d.CostFull {
			return d.Model == OnDemandIO
		}
		return d.Model == FullIO
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadIsSmall(t *testing.T) {
	// The Figure 11 claim: benefit evaluation is cheap. A full pass over a
	// million-vertex active set must finish in well under 50 ms.
	const n = 1 << 20
	s, _ := New(testConfig(n, 16*n))
	active := bitset.NewActiveSet(n)
	for v := 0; v < n; v += 2 {
		active.Activate(v)
	}
	deg := uniformDegrees(n, 16)
	start := time.Now()
	s.Decide(0, active, deg)
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("decision took %v", elapsed)
	}
}

func TestEdgeBytesOnDiskLowersCosts(t *testing.T) {
	cfg := testConfig(1000, 50000)
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 3x-compressed layout: same edges, a third of the payload on disk.
	comp := cfg
	comp.EdgeBytesOnDisk = cfg.NumEdges * int64(cfg.EdgeRecordBytes) / 3
	small, err := New(comp)
	if err != nil {
		t.Fatal(err)
	}
	if small.CostFull() >= plain.CostFull() {
		t.Fatalf("compressed CostFull %v not below raw %v", small.CostFull(), plain.CostFull())
	}
	// CostFull matches the formula with on-disk bytes substituted.
	vBytes := int64(cfg.NumVertices) * graph.VertexValueBytes
	want := cfg.Profile.SeqCost(storage.SeqRead, vBytes+comp.EdgeBytesOnDisk) +
		cfg.Profile.SeqCost(storage.SeqWrite, vBytes)
	if got := small.CostFull(); got != want {
		t.Fatalf("compressed CostFull = %v, want %v", got, want)
	}

	// The on-demand estimate shrinks proportionally too.
	active := bitset.NewActiveSet(1000)
	for v := 100; v < 200; v++ {
		active.Activate(v)
	}
	deg := uniformDegrees(1000, 5)
	seqA, ranA, _ := plain.EstimateOnDemand(active, deg)
	seqB, ranB, _ := small.EstimateOnDemand(active, deg)
	if seqB+ranB >= seqA+ranA {
		t.Fatalf("compressed on-demand bytes %d not below raw %d", seqB+ranB, seqA+ranA)
	}
}

func TestDecideTieBreaksToOnDemand(t *testing.T) {
	// An empty graph makes both raw costs exactly zero — the one place an
	// exact tie is constructible without floating-point luck. The <= in
	// Decide must resolve it to on-demand.
	s, err := New(testConfig(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	d := s.Decide(0, bitset.NewActiveSet(0), nil)
	if d.CostFull != d.CostOnDemand {
		t.Fatalf("costs not tied: Cs=%v Cr=%v", d.CostFull, d.CostOnDemand)
	}
	if d.Model != OnDemandIO {
		t.Fatalf("exact tie chose %v, want on-demand", d.Model)
	}
}

func TestEstimateAdversarialFrontiers(t *testing.T) {
	const n = 512 // P=4 -> interval length 128

	t.Run("empty", func(t *testing.T) {
		s, _ := New(testConfig(n, int64(2*n)))
		seqB, ranB, seeks := s.EstimateOnDemand(bitset.NewActiveSet(n), uniformDegrees(n, 2))
		if seqB != 0 || ranB != 0 || seeks != 0 {
			t.Fatalf("empty frontier charged: seq=%d ran=%d seeks=%d", seqB, ranB, seeks)
		}
	})

	t.Run("all-active", func(t *testing.T) {
		s, _ := New(testConfig(n, int64(2*n)))
		active := bitset.NewActiveSet(n)
		active.ActivateAll()
		seqB, ranB, seeks := s.EstimateOnDemand(active, uniformDegrees(n, 2))
		// One portion per interval, each with 256 edges >> P blocks: 4 rows
		// of 4 seeks. First vertex of each portion random, rest sequential.
		if seeks != 16 {
			t.Fatalf("seeks = %d, want 16", seeks)
		}
		if ranB != 4*2*graph.EdgeBytes {
			t.Fatalf("ranB = %d, want 64", ranB)
		}
		if seqB+ranB != int64(n*2*graph.EdgeBytes) {
			t.Fatalf("total %d != %d", seqB+ranB, n*2*graph.EdgeBytes)
		}
	})

	t.Run("alternating", func(t *testing.T) {
		s, _ := New(testConfig(n, int64(2*n)))
		active := bitset.NewActiveSet(n)
		for v := 0; v < n; v += 2 {
			active.Activate(v)
		}
		seqB, ranB, seeks := s.EstimateOnDemand(active, uniformDegrees(n, 2))
		// Every skipped vertex has edges, so all 256 actives are their own
		// portion; each portion's seek charge is capped at its 2 edges, and
		// its whole payload is random.
		if seeks != 256*2 {
			t.Fatalf("seeks = %d, want 512", seeks)
		}
		if ranB != 256*2*graph.EdgeBytes || seqB != 0 {
			t.Fatalf("split seq=%d ran=%d, want 0/%d", seqB, ranB, 256*2*graph.EdgeBytes)
		}
	})

	t.Run("run-spanning-all-rows-with-sparse-grid", func(t *testing.T) {
		cfg := testConfig(n, int64(2*n))
		cfg.BlocksPerRow = []int{4, 3, 2, 1}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		active := bitset.NewActiveSet(n)
		active.ActivateAll()
		_, _, seeks := s.EstimateOnDemand(active, uniformDegrees(n, 2))
		// The run splits into one portion per interval, and each portion
		// only seeks for its row's non-empty sub-blocks: 4+3+2+1.
		if seeks != 10 {
			t.Fatalf("seeks = %d, want 10", seeks)
		}
	})

	t.Run("zero-degree-gap-merges", func(t *testing.T) {
		s, _ := New(testConfig(100, 10))
		active := bitset.NewActiveSet(100)
		active.Activate(0)
		active.Activate(10)
		deg := make([]uint32, 100)
		deg[0], deg[10] = 5, 5
		seqB, ranB, seeks := s.EstimateOnDemand(active, deg)
		// The gap 1..9 holds only zero-degree vertices — no bytes on disk —
		// so both actives form one sequential portion: 4 seeks, first
		// vertex random, second sequential.
		if seeks != 4 {
			t.Fatalf("seeks = %d, want 4", seeks)
		}
		if ranB != 5*graph.EdgeBytes || seqB != 5*graph.EdgeBytes {
			t.Fatalf("split seq=%d ran=%d, want 40/40", seqB, ranB)
		}
	})
}

func TestObserveCalibratesEWMA(t *testing.T) {
	s, _ := New(testConfig(1_000_000, 16_000_000))
	active := bitset.NewActiveSet(1_000_000)
	active.Activate(123)
	deg := uniformDegrees(1_000_000, 16)
	d := s.Decide(0, active, deg)
	if d.Model != OnDemandIO {
		t.Fatalf("setup: expected on-demand, got %v", d.Model)
	}
	if d.CorrFull != 1 || d.CorrOnDemand != 1 {
		t.Fatalf("uncalibrated factors not 1: %+v", d)
	}

	// The device charged exactly twice the raw prediction.
	actual := 2 * d.CostOnDemand
	pred, mis := s.Observe(OnDemandIO, actual)
	if pred != d.CostOnDemand {
		t.Fatalf("predicted = %v, want raw %v (factor was 1)", pred, d.CostOnDemand)
	}
	if mis < 0.499 || mis > 0.501 {
		t.Fatalf("mispredict = %v, want 0.5", mis)
	}
	// EWMA with alpha=0.5: factor = 0.5*1 + 0.5*2 = 1.5.
	if got := s.factor[OnDemandIO]; got < 1.499 || got > 1.501 {
		t.Fatalf("factor = %v, want 1.5", got)
	}
	if s.factor[FullIO] != 1 {
		t.Fatal("full-model factor moved without an observation")
	}

	// The annotated decision carries the feedback.
	h := s.History()
	if h[0].Actual != actual || h[0].Mispredict != mis || h[0].Predicted != pred {
		t.Fatalf("history not annotated: %+v", h[0])
	}

	// The next decision uses — and reports — the corrected factor.
	d2 := s.Decide(1, active, deg)
	if d2.CorrOnDemand != s.factor[OnDemandIO] {
		t.Fatalf("decision factor %v != scheduler factor %v", d2.CorrOnDemand, s.factor[OnDemandIO])
	}

	a := s.Accuracy()
	if a.Observed != 1 || a.MeanMispredict != mis || a.MaxMispredict != mis || a.LastMispredict != mis {
		t.Fatalf("accuracy summary wrong: %+v", a)
	}
	if a.CorrOnDemand != s.factor[OnDemandIO] || a.CorrFull != 1 {
		t.Fatalf("accuracy factors wrong: %+v", a)
	}

	// A wild outlier is clamped, not adopted.
	s.Observe(OnDemandIO, 1000*d2.CostOnDemand)
	if got := s.factor[OnDemandIO]; got != correctionMax {
		t.Fatalf("factor = %v, want clamped to %v", got, correctionMax)
	}
}

func TestObserveWithoutDecisionIsNoop(t *testing.T) {
	s, _ := New(testConfig(100, 1000))
	pred, mis := s.Observe(FullIO, time.Second)
	if pred != 0 || mis != 0 {
		t.Fatalf("Observe on empty history returned %v/%v", pred, mis)
	}
	if s.Accuracy().Observed != 0 {
		t.Fatal("Observe on empty history counted an observation")
	}
}

func TestHysteresisSuppressesNearTieFlips(t *testing.T) {
	// Frontier where raw on-demand wins comfortably.
	s, _ := New(testConfig(1_000_000, 16_000_000))
	active := bitset.NewActiveSet(1_000_000)
	active.Activate(123)
	deg := uniformDegrees(1_000_000, 16)
	d1 := s.Decide(0, active, deg)
	if d1.Model != OnDemandIO {
		t.Fatalf("setup: expected on-demand, got %v", d1.Model)
	}

	// Simulate calibration having pushed the on-demand correction to where
	// the corrected on-demand cost sits 2% ABOVE full — inside the 5%
	// hysteresis band. The incumbent (on-demand) must survive the near-tie.
	cf := float64(d1.CostFull)
	crRaw := float64(d1.CostOnDemand)
	s.observed[OnDemandIO] = 1
	s.factor[OnDemandIO] = 1.02 * cf / crRaw
	d2 := s.Decide(1, active, deg)
	if d2.Model != OnDemandIO {
		t.Fatalf("near-tie flipped the model to %v", d2.Model)
	}

	// Push the correction far past the band: the flip is genuine and must
	// go through.
	s.factor[OnDemandIO] = 3 * cf / crRaw
	d3 := s.Decide(2, active, deg)
	if d3.Model != FullIO {
		t.Fatalf("decisive challenger suppressed: got %v", d3.Model)
	}

	// And once Full is the incumbent, a marginal on-demand advantage is
	// also suppressed: corrected Cr at 97% of Cf stays Full.
	s.factor[OnDemandIO] = 0.97 * cf / crRaw
	d4 := s.Decide(3, active, deg)
	if d4.Model != FullIO {
		t.Fatalf("marginal challenger flipped the model to %v", d4.Model)
	}

	// A decisive on-demand advantage flips back.
	s.factor[OnDemandIO] = 0.5 * cf / crRaw
	d5 := s.Decide(4, active, deg)
	if d5.Model != OnDemandIO {
		t.Fatalf("decisive flip back suppressed: got %v", d5.Model)
	}
}
