package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload at the smoke scale and holds the output to
// BENCHMARK.json: each metric named there is emitted once per workload with
// its unit and a finite value, and the two PageRank workloads separate on
// the decode counter they were chosen to separate on.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := config{Seed: 1, Scale: scales["smoke"], Blocks: 1, Setups: 1,
		WorkDir: filepath.Join(dir, "work"), OutDir: filepath.Join(dir, "out"), probe: newHostProbe()}
	rep, err := runWorkloads(cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(bf.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(rep.Workloads), len(bf.Workloads))
	}
	byName := map[string]*workloadReport{}
	for k, w := range rep.Workloads {
		byName[w.Name] = w
		if w.Name != bf.Workloads[k].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", k, w.Name, bf.Workloads[k].Name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: failed %d of %d: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		if len(w.EndToEnd) != len(bf.EndToEnd) || len(w.PerLayer) != len(bf.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, BENCHMARK.json names %d+%d", w.Name,
				len(w.EndToEnd), len(w.PerLayer), len(bf.EndToEnd), len(bf.PerLayer))
		}
		for _, m := range bf.EndToEnd {
			v, ok := w.EndToEnd[m.Name]
			// setup_s is user-mode CPU time, which the kernel accounts in
			// ticks: a smoke-scale set-up can finish inside one and read 0.
			if zeroOK := m.Name == "setup_s" && v.Value == 0; !ok || v.Unit != m.Unit || !(v.Value > 0 || zeroOK) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want unit %s and a positive finite value", w.Name, m.Name, v, ok, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			v, ok := w.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s and a finite value", w.Name, m.Name, v, ok, m.Unit)
			}
		}
		if w.TraceFile == "" {
			t.Errorf("%s: no trace file", w.Name)
		}
	}
	if v := byName["pr_fit"].PerLayer["graph.decode_s"].Value; v != 0 {
		t.Errorf("pr_fit: graph.decode_s = %v, want 0 with the whole graph cached decoded", v)
	}
	if v := byName["pr_ooc"].PerLayer["graph.decode_s"].Value; !(v > 0) {
		t.Errorf("pr_ooc: graph.decode_s = %v, want > 0 with every pass re-reading", v)
	}
	for _, name := range []string{"wal.append_sync_us", "delta.compact_s", "jobs.journal_records", "server.submit_p50_s", "checkpoint.save_us"} {
		if v := byName["serve_mixed"].PerLayer[name].Value; !(v > 0) {
			t.Errorf("serve_mixed: %s = %v, want > 0", name, v)
		}
		if v := byName["pr_ooc"].PerLayer[name].Value; v != 0 {
			t.Errorf("pr_ooc: %s = %v, want 0 on a workload that never serves", name, v)
		}
	}
}

// TestDefinitionsMatchBenchmarkFile keeps the metric tables in this package
// and in BENCHMARK.json from drifting apart.
func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n file %v\n code %v", layers, perLayer)
	}
	for k, w := range bf.Workloads {
		if k >= len(workloads) || w.Name != workloads[k].Name || w.Why != workloads[k].Why {
			t.Errorf("workload %d: file has %q, code differs", k, w.Name)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestNearestRank(t *testing.T) {
	v := make([]float64, 100) // 1..100 shuffled by a stride
	for k := range v {
		v[k] = float64((k*37)%100 + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := nearestRank(v, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{5, 9}, 50); got != 5 {
		t.Errorf("nearestRank({5,9}, 50) = %v, want 5", got)
	}
	if got := nearestRank(nil, 99); got != 0 {
		t.Errorf("nearestRank(nil) = %v, want 0", got)
	}
}

// TestTail checks the "at least ten samples beyond it" rule.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = float64(k + 1)
		}
		return v
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{10, 50, 5.5},       // nothing has ten samples beyond it
		{40, 75, 30},        // p75 leaves exactly 10 beyond; p90 leaves 4
		{100, 90, 90},       // p90 leaves 10; p95 leaves 5
		{200, 95, 190},      // p95 leaves 10; p99 leaves 2
		{1000, 99, 990},     // p99 leaves 10; p99.9 leaves 1
		{10000, 99.9, 9990}, // p99.9 leaves 10
	} {
		pct, val := tail(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("tail(1..%d) = p%v %v, want p%v %v", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},   // two children and a grandchild
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 40},    // one child
		{ID: 2, Parent: 1, StartNS: 15, EndNS: 25},    // leaf
		{ID: 3, Parent: 0, StartNS: 50, EndNS: 120},   // runs past its parent: clipped to 50
		{ID: 4, Parent: -1, StartNS: 200, EndNS: 210}, // children cover more than all of it
		{ID: 5, Parent: 4, StartNS: 200, EndNS: 206},  //
		{ID: 6, Parent: 4, StartNS: 206, EndNS: 210},  //
		{ID: 7, Parent: 4, StartNS: 300, EndNS: 310},  // wholly outside its parent: ignored
	}
	want := []int64{100 - 30 - 50, 30 - 10, 10, 70, 0, 6, 4, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	total, self, count := sumByName([]span{
		{ID: 0, Parent: -1, Name: "load", StartNS: 0, EndNS: 10},
		{ID: 1, Parent: 0, Name: "read", StartNS: 0, EndNS: 4},
		{ID: 2, Parent: -1, Name: "load", StartNS: 20, EndNS: 26},
		{ID: 3, Parent: 2, Name: "read", StartNS: 20, EndNS: 25},
	})
	if total["load"] != 16 || self["load"] != 7 || count["load"] != 2 || total["read"] != 9 || self["read"] != 9 {
		t.Errorf("sumByName: total %v self %v count %v", total, self, count)
	}
}

func TestAttributeStaysInsideParent(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{{ID: 0, Parent: -1, Op: 3, StartNS: 100, EndNS: 160}}
	tr.attribute(0, []string{"a", "b", "c"}, []time.Duration{30, 20, 50})
	want := []span{
		{ID: 1, Parent: 0, Op: 3, Name: "a", StartNS: 100, EndNS: 130, Attributed: true},
		{ID: 2, Parent: 0, Op: 3, Name: "b", StartNS: 130, EndNS: 150, Attributed: true},
		{ID: 3, Parent: 0, Op: 3, Name: "c", StartNS: 150, EndNS: 160, Attributed: true},
	}
	if !reflect.DeepEqual(tr.spans[1:], want) {
		t.Errorf("attribute = %+v, want %+v", tr.spans[1:], want)
	}
	if self := selfTimes(tr.spans); self[0] != 0 {
		t.Errorf("parent self time = %d, want 0", self[0])
	}
}

// TestGeneratorsAreSeeded: equal seeds give equal inputs, different seeds
// different ones, for the two generators whose output the workloads' numbers
// hang on.
func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := lattice(12, 5, 0), lattice(12, 5, 0), lattice(12, 6, 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("lattice: equal seeds gave different graphs")
	}
	if reflect.DeepEqual(a.Edges, c.Edges) {
		t.Error("lattice: different seeds gave the same weights")
	}
	if reflect.DeepEqual(a.Edges, lattice(12, 5, 1).Edges) {
		t.Error("lattice: two inputs of one seed are the same graph")
	}
	if want := 4 * 12 * 11; a.NumEdges() != want || a.NumVertices != 144 || !a.Weighted {
		t.Errorf("lattice(12): %d vertices, %d edges, weighted %v; want 144, %d, true", a.NumVertices, a.NumEdges(), a.Weighted, want)
	}
	for _, e := range a.Edges {
		if e.Weight < 1 || e.Weight > 16 || e.Weight != float32(int(e.Weight)) {
			t.Fatalf("lattice: weight %v outside the integers 1..16", e.Weight)
		}
	}

	sources := []uint32{4, 8, 15, 16, 23, 42}
	ops := func(seed int64, client int) []serveOp {
		seq := newOpSequence(seed, client, sources, 1000)
		out := make([]serveOp, 24)
		for k := range out {
			out[k] = seq.next()
		}
		return out
	}
	for client := 0; client < serveClients; client++ {
		x := ops(5, client)
		if !reflect.DeepEqual(x, ops(5, client)) {
			t.Errorf("client %d: equal seeds gave different op sequences", client)
		}
		if reflect.DeepEqual(x, ops(6, client)) {
			t.Errorf("client %d: different seeds gave the same op sequence", client)
		}
		for k, op := range x {
			if want := clientCycles[client][k%len(clientCycles[client])]; op.Alg != want {
				t.Fatalf("client %d op %d: algorithm %q, want %q", client, k, op.Alg, want)
			}
			if (op.Alg == "") != (len(op.Batch) == mutationBatch) {
				t.Fatalf("client %d op %d: %d mutations for algorithm %q", client, k, len(op.Batch), op.Alg)
			}
		}
	}
	if reflect.DeepEqual(rmat(8, 4, true, 5), rmat(8, 4, true, 6)) || !reflect.DeepEqual(rmat(8, 4, true, 5), rmat(8, 4, true, 5)) {
		t.Error("rmat is not a function of its seed alone")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		base, cand side
		better     string
		want       string
	}{
		{side{value: 1}, side{value: 1.05}, "lower", "ok"},
		{side{value: 1}, side{value: 1.2}, "lower", "regressed"},
		{side{value: 1}, side{value: 0.5}, "lower", "ok"},
		{side{value: 10}, side{value: 8}, "higher", "regressed"},
		{side{value: 10}, side{value: 12}, "higher", "ok"},
		{side{value: 1, spread: 0.3}, side{value: 1.2}, "lower", "unresolved"},
		{side{value: 1}, side{value: 1, spread: 0.11}, "lower", "unresolved"},
	} {
		if _, got := verdict(c.base, c.cand, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.base, c.cand, c.better, got, c.want)
		}
	}
}

// TestHostWatchBetween: a job is scaled by the samples taken during its
// flight, or by the nearest one when it was shorter than the sampling gap.
func TestHostWatchBetween(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	w := &hostWatch{at: []time.Time{at(0), at(100), at(200), at(300)}, factors: []float64{1, 2, 4, 8}}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{100, 200, 3}, // the two samples at its ends
		{90, 310, 14.0 / 3},
		{120, 180, 2}, // none inside and two equally near: the earlier one
		{150, 190, 4}, // none inside: the nearest
		{400, 500, 8}, // after the last sample
	} {
		if got := w.between(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("between(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}
