package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestServerAsync serves a graph with the async scheduler enabled:
// label-correcting jobs run asynchronously and agree with a plain (BSP)
// server's outputs, any other job silently falls back to BSP instead of
// failing, and /metrics exposes the graphsd_async_* counter family.
func TestServerAsync(t *testing.T) {
	dir, _ := buildLayoutDir(t, 9, 7, 4)
	gc := GraphConfig{Name: "rmat9", Dir: dir, Profile: storage.HDD}
	_, plainTS := newTestServer(t, Config{Graphs: []GraphConfig{gc}})
	gc.Async = true
	asyncSrv, asyncTS := newTestServer(t, Config{Graphs: []GraphConfig{gc}})

	run := func(ts *httptest.Server, req jobs.Request) []float64 {
		t.Helper()
		code, st := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %+v: HTTP %d", req, code)
		}
		waitDone(t, ts, st.ID)
		var full struct {
			Full []float64 `json:"full"`
		}
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result?full=1", &full); code != http.StatusOK {
			t.Fatalf("result: HTTP %d", code)
		}
		return full.Full
	}

	// Min-program labels must match BSP bit for bit under async execution.
	bfs := jobs.Request{Graph: "rmat9", Algorithm: "bfs", Source: 1}
	want := run(plainTS, bfs)
	got := run(asyncTS, bfs)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("output lengths: plain=%d async=%d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("bfs vertex %d: plain=%v async=%v", i, want[i], got[i])
		}
	}

	// Plain PageRank is not label-correcting: the async server must fall
	// back to BSP and still complete the job with matching outputs.
	pr := jobs.Request{Graph: "rmat9", Algorithm: "pr"}
	wantPR := run(plainTS, pr)
	gotPR := run(asyncTS, pr)
	for i := range wantPR {
		if wantPR[i] != gotPR[i] {
			t.Fatalf("pr vertex %d: plain=%v async=%v", i, wantPR[i], gotPR[i])
		}
	}

	g := asyncSrv.graphs["rmat9"]
	g.mu.Lock()
	asyncRuns, asyncSteps := g.agg.asyncRuns, g.agg.asyncSteps
	g.mu.Unlock()
	if asyncRuns != 1 {
		t.Fatalf("async runs folded = %d, want 1 (bfs async, pr BSP fallback)", asyncRuns)
	}
	if asyncSteps == 0 {
		t.Fatal("async run folded zero scheduler steps")
	}

	resp, err := http.Get(asyncTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		`graphsd_async_runs_total{graph="rmat9"} 1`,
		`graphsd_async_steps_total{graph="rmat9"}`,
		`graphsd_async_blocks_scheduled_total{graph="rmat9"}`,
		`graphsd_async_reactivations_total{graph="rmat9"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerAsyncRunsPRDeltaAsBSP: async runs label-correcting programs only,
// so a prd job on an async graph runs BSP — it completes with the async stats
// off and outputs bit-identical to the same job on a plain graph.
func TestServerAsyncRunsPRDeltaAsBSP(t *testing.T) {
	dir, _ := buildLayoutDir(t, 9, 7, 4)
	gc := GraphConfig{Name: "rmat9", Dir: dir, Profile: storage.HDD}
	plain, _ := newTestServer(t, Config{Graphs: []GraphConfig{gc}})
	gc.Async = true
	async, _ := newTestServer(t, Config{Graphs: []GraphConfig{gc}})

	var res [2]*core.Result
	for k, s := range []*Server{plain, async} {
		j, err := s.Scheduler().Submit(jobs.Request{Graph: "rmat9", Algorithm: "prd"})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j, jobs.Done)
		res[k] = j.Result()
	}
	if res[1].Async.Enabled {
		t.Fatalf("prd on an async graph ran async: %+v", res[1].Async)
	}
	if len(res[0].Outputs) == 0 || len(res[1].Outputs) != len(res[0].Outputs) {
		t.Fatalf("output lengths: plain=%d async graph=%d", len(res[0].Outputs), len(res[1].Outputs))
	}
	for i, want := range res[0].Outputs {
		if got := res[1].Outputs[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prd vertex %d: plain=%v async graph=%v", i, want, got)
		}
	}
}
