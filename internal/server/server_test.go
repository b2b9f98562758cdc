package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/gen"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/storage"
)

// buildLayoutDir preprocesses a small RMAT graph into a fresh directory and
// returns it, for registering with a test server.
func buildLayoutDir(t testing.TB, scale int, seed int64, p int) (string, *graph.Graph) {
	t.Helper()
	g, err := gen.RMAT(scale, 8, gen.Graph500, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dev, err := storage.OpenDevice(dir, storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Build(dev, g, p); err != nil {
		t.Fatal(err)
	}
	return dir, g
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req jobs.Request) (int, jobs.Status) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st jobs.Status
		code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		switch st.State {
		case "done":
			return st
		case "failed", "cancelled":
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobs.Status{}
}

func TestServerJobRoundTrip(t *testing.T) {
	dir, _ := buildLayoutDir(t, 9, 7, 4)
	_, ts := newTestServer(t, Config{Graphs: []GraphConfig{{Name: "rmat9", Dir: dir, Profile: storage.HDD}}})

	code, st := postJob(t, ts, jobs.Request{Graph: "rmat9", Algorithm: "pr"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.ID == "" || st.Graph != "rmat9" {
		t.Fatalf("submit status: %+v", st)
	}
	final := waitDone(t, ts, st.ID)
	if final.Iterations == 0 {
		t.Fatalf("no iterations recorded: %+v", final)
	}

	// Top-k result.
	var res struct {
		jobs.Status
		Top []struct {
			Vertex uint32  `json:"vertex"`
			Value  float64 `json:"value"`
		} `json:"top"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result?top=5", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(res.Top) != 5 {
		t.Fatalf("top-5 returned %d rows", len(res.Top))
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Value > res.Top[i-1].Value {
			t.Fatalf("top-k not descending: %+v", res.Top)
		}
	}

	// Full result.
	var full struct {
		Full []float64 `json:"full"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result?full=1", &full); code != http.StatusOK {
		t.Fatalf("full result: HTTP %d", code)
	}
	if len(full.Full) == 0 {
		t.Fatal("full result empty")
	}

	// Listing includes the job.
	var list struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("list: HTTP %d, %d jobs", code, len(list.Jobs))
	}
}

func TestServerValidation(t *testing.T) {
	dir, g := buildLayoutDir(t, 9, 3, 4)
	_, ts := newTestServer(t, Config{Graphs: []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}}})

	cases := []jobs.Request{
		{Graph: "nope", Algorithm: "pr"},
		{Graph: "g", Algorithm: "nope"},
		{Graph: "g"},
		{Algorithm: "pr"},
		{Graph: "g", Algorithm: "bfs", Source: uint32(g.NumVertices)},
		{Graph: "g", Algorithm: "pr", MaxIterations: -1},
	}
	for _, req := range cases {
		if code, _ := postJob(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("%+v: HTTP %d, want 400", req, code)
		}
	}

	// Unknown fields and malformed JSON are 400 too.
	for _, body := range []string{`{"graph":"g","algorithm":"pr","bogus":1}`, `{not json`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown job IDs are 404.
	if code := getJSON(t, ts.URL+"/v1/jobs/jnope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/jnope/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job result: HTTP %d", code)
	}
}

func TestServerResultConflictWhilePending(t *testing.T) {
	dir, _ := buildLayoutDir(t, 10, 5, 4)
	_, ts := newTestServer(t, Config{
		Graphs:  []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}},
		Workers: 1,
	})
	code, st := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Immediately asking for the result races the run; both 409 (not done)
	// and 200 (already done) are legal, but nothing else.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("pending result: HTTP %d", code)
	}
	waitDone(t, ts, st.ID)
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusOK {
		t.Fatalf("done result: HTTP %d", code)
	}
}

func TestServerCancel(t *testing.T) {
	dir, _ := buildLayoutDir(t, 11, 9, 4)
	_, ts := newTestServer(t, Config{
		Graphs:  []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}},
		Workers: 1,
	})
	code, st := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur jobs.Status
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.State == "cancelled" || cur.State == "done" {
			break // done is legal if the run beat the cancel
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	dir, g := buildLayoutDir(t, 9, 1, 4)
	s, ts := newTestServer(t, Config{
		Graphs:     []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}},
		Workers:    1,
		QueueDepth: 1,
	})
	// Park the running job inside a device read so the queue stays full:
	// the injector blocks block reads until the gate opens.
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before the server Close registered earlier
	_, dev, _ := s.Graph("g")
	dev.SetFaultInjector(func(op, name string) error {
		if strings.HasPrefix(op, "read") && strings.HasPrefix(name, "blocks/") {
			<-gate
		}
		return nil
	})

	// Saturate: 1 parked running + 1 queued, then a deterministic 429.
	// The second submit can race the worker's dequeue of the first, so a
	// transient 429 before saturation is retried.
	deadline := time.Now().Add(10 * time.Second)
	for accepted := 0; accepted < 2; {
		code, _ := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr"})
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("submit: HTTP %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("could not saturate queue")
		}
	}
	for {
		if s.Scheduler().Snapshot().QueueLen == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	code, _ := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue: HTTP %d, want 429", code)
	}
	release()
	if est := s.estimateBytes(jobs.Request{Graph: "g"}); est <= 16<<20 {
		t.Fatalf("memory estimate suspiciously small: %d", est)
	}
	// PR-Delta keeps an aux array the engine allocates beside the four
	// shared ones; admission must price it.
	pr := s.estimateBytes(jobs.Request{Graph: "g", Algorithm: "pr"})
	prd := s.estimateBytes(jobs.Request{Graph: "g", Algorithm: "prd"})
	if want := int64(8 * g.NumVertices); prd-pr != want {
		t.Fatalf("prd estimate %d − pr estimate %d = %d, want the aux array's %d bytes", prd, pr, prd-pr, want)
	}
	// So must it what the run's block handles keep until it returns, and the
	// per-vertex state the engine allocates — which the server does not spell
	// out itself: it is core.RunBytes of the job's options (held to the
	// engine's arrays by TestRunBytesCoversEngineArrays), at least 48 bytes a
	// vertex on top of the handles, the buffer and the window. (The hand copy
	// it replaced charged 34.)
	m := s.graphs["g"].manifest()
	if handles, rest := core.HandleBytes(&m), m.EdgeBytesTotal()/4+16<<20; handles == 0 || pr < int64(48*g.NumVertices)+handles+rest {
		t.Fatalf("pr estimate %d with %d handle bytes and %d of buffer and window: the vertex state or the handles are not charged", pr, handles, rest)
	}
	if want := core.RunBytes(&m, core.Options{DefaultBuffer: true, SharedBlocks: s.graphs["g"].shared}, &algorithms.PageRank{}); pr != want {
		t.Fatalf("pr estimate %d, core.RunBytes of the job's options %d", pr, want)
	}
}

func TestServerMemBudgetRejection(t *testing.T) {
	dir, _ := buildLayoutDir(t, 9, 6, 4)
	_, ts := newTestServer(t, Config{
		Graphs:    []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}},
		MemBudget: 1, // below any job's estimate: every submission rejected
	})
	code, _ := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit under 1-byte budget: HTTP %d, want 429", code)
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	dir, _ := buildLayoutDir(t, 9, 2, 4)
	_, ts := newTestServer(t, Config{Graphs: []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD, Retries: 3}}})

	var hz struct {
		Status string   `json:"status"`
		Graphs []string `json:"graphs"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" || len(hz.Graphs) != 1 {
		t.Fatalf("healthz: HTTP %d, %+v", code, hz)
	}

	_, st := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "bfs", Source: 1})
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	body := buf.String()

	for _, want := range []string{
		`graphsd_jobs_total{state="done"} 1`,
		`graphsd_device_read_bytes_total{graph="g"}`,
		`graphsd_device_retries_total{graph="g"}`,
		`graphsd_shared_cache_misses_total{graph="g"}`,
		`graphsd_pipeline_fallbacks_total{graph="g"}`,
		`graphsd_pipeline_blocks_total{graph="g"}`,
		`graphsd_buffer_hits_total{graph="g"}`,
		`graphsd_sched_observed_iterations_total{graph="g"}`,
		`graphsd_sched_mispredict_mean_ratio{graph="g"}`,
		`graphsd_sched_correction_factor{graph="g",model="full"}`,
		`graphsd_sched_correction_factor{graph="g",model="on-demand"}`,
		"graphsd_uptime_seconds",
		"graphsd_queue_capacity",
		"graphsd_mem_budget_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every sample family is announced: no sample line without a TYPE.
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]] = true
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !seen[name] {
			t.Errorf("sample %q has no TYPE header", line)
		}
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no graphs accepted")
	}
	dir, _ := buildLayoutDir(t, 9, 4, 4)
	if _, err := New(Config{Graphs: []GraphConfig{
		{Name: "a", Dir: dir, Profile: storage.HDD},
		{Name: "a", Dir: dir, Profile: storage.HDD},
	}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New(Config{Graphs: []GraphConfig{{Name: "a", Dir: t.TempDir(), Profile: storage.HDD}}}); err == nil {
		t.Fatal("empty layout dir accepted")
	}
}
