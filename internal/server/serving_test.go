package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/storage"
)

// ---------- streaming + pagination ----------

// fullResponse decodes a streamed ?full=1 payload. Values are RawMessage
// because non-finite floats render as JSON strings.
type fullResponse struct {
	jobs.Status
	Total      int               `json:"total"`
	Offset     int               `json:"offset"`
	NextOffset *int              `json:"next_offset"`
	Full       []json.RawMessage `json:"full"`
}

func getFull(t *testing.T, url string) (int, fullResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out fullResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode, out
}

func TestResultStreamPagination(t *testing.T) {
	dir, g := buildLayoutDir(t, 9, 7, 4)
	_, ts := newTestServer(t, Config{Graphs: []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}}})
	code, st := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitDone(t, ts, st.ID)
	base := ts.URL + "/v1/jobs/" + st.ID + "/result?full=1"

	// The whole stream: every vertex, correct envelope, no next page.
	code, whole := getFull(t, base)
	if code != http.StatusOK || len(whole.Full) != g.NumVertices || whole.Total != g.NumVertices {
		t.Fatalf("full stream: HTTP %d, %d/%d values, total %d", code, len(whole.Full), g.NumVertices, whole.Total)
	}
	if whole.NextOffset != nil {
		t.Fatalf("unpaginated stream advertised next_offset %d", *whole.NextOffset)
	}
	if whole.State != "done" || whole.ID != st.ID {
		t.Fatalf("stream lost the status envelope: %+v", whole.Status)
	}

	// A middle page: values must be the same window of the whole stream.
	code, page := getFull(t, base+"&offset=100&limit=50")
	if code != http.StatusOK || page.Total != g.NumVertices || page.Offset != 100 || len(page.Full) != 50 {
		t.Fatalf("page: HTTP %d total=%d offset=%d len=%d", code, page.Total, page.Offset, len(page.Full))
	}
	if page.NextOffset == nil || *page.NextOffset != 150 {
		t.Fatalf("page next_offset: %v", page.NextOffset)
	}
	for i, v := range page.Full {
		if !bytes.Equal(v, whole.Full[100+i]) {
			t.Fatalf("page value %d: %s != whole[%d]=%s", i, v, 100+i, whole.Full[100+i])
		}
	}

	// Walking next_offset visits every value exactly once.
	seen := 0
	for off := 0; ; {
		_, p := getFull(t, fmt.Sprintf("%s&offset=%d&limit=97", base, off))
		seen += len(p.Full)
		if p.NextOffset == nil {
			break
		}
		off = *p.NextOffset
	}
	if seen != g.NumVertices {
		t.Fatalf("pagination walk saw %d values, want %d", seen, g.NumVertices)
	}

	// Edge: offset past the end is an empty 200 page, not an error.
	code, past := getFull(t, base+"&offset=99999999&limit=10")
	if code != http.StatusOK || len(past.Full) != 0 || past.Total != g.NumVertices || past.NextOffset != nil {
		t.Fatalf("offset past end: HTTP %d len=%d total=%d next=%v", code, len(past.Full), past.Total, past.NextOffset)
	}
	// Edge: a limit at or past the end, however large, pages through the end
	// — it must not overflow offset+limit into an empty page.
	n := g.NumVertices
	for _, tc := range []struct {
		name  string
		limit int
		want  int // values in the page after offset 1
	}{
		{"limit-short", n - 2, n - 2},
		{"limit-exact", n - 1, n - 1},
		{"limit-past-end", n, n - 1},
		{"limit-huge", math.MaxInt64, n - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, rest := getFull(t, fmt.Sprintf("%s&offset=1&limit=%d", base, tc.limit))
			if code != http.StatusOK || len(rest.Full) != tc.want || rest.Total != n {
				t.Fatalf("HTTP %d len=%d total=%d, want %d of %d values", code, len(rest.Full), rest.Total, tc.want, n)
			}
			if more := 1+tc.want < n; more != (rest.NextOffset != nil) || more && *rest.NextOffset != 1+tc.want {
				t.Fatalf("next_offset %v after %d values from offset 1 of %d", rest.NextOffset, tc.want, n)
			}
			if !bytes.Equal(rest.Full[len(rest.Full)-1], whole.Full[tc.want]) {
				t.Fatalf("last value %s != whole[%d]=%s", rest.Full[len(rest.Full)-1], tc.want, whole.Full[tc.want])
			}
		})
	}
	// Edge: limit=0 returns just the envelope — the cheap "how big is it".
	code, empty := getFull(t, base+"&limit=0")
	if code != http.StatusOK || len(empty.Full) != 0 || empty.Total != g.NumVertices {
		t.Fatalf("limit=0: HTTP %d len=%d total=%d", code, len(empty.Full), empty.Total)
	}
	if empty.NextOffset == nil || *empty.NextOffset != 0 {
		t.Fatalf("limit=0 next_offset: %v", empty.NextOffset)
	}
	// Edge: garbage pagination params are a 400, not a panic or a default.
	for _, q := range []string{"&offset=-1", "&limit=x", "&offset=1e3"} {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestStreamNonFinite feeds Inf/NaN mid-stream and checks they arrive as
// the documented JSON strings with everything after them intact.
func TestStreamNonFinite(t *testing.T) {
	vals := []float64{1.5, math.Inf(1), 0, math.Inf(-1), math.NaN(), 2.25}
	rec := httptest.NewRecorder()
	streamFullResult(rec, jobs.Status{ID: "j", State: "done"}, vals, resultPage{limit: -1, total: len(vals)})
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	var out fullResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("stream is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	want := []string{"1.5", `"Infinity"`, "0", `"-Infinity"`, `"NaN"`, "2.25"}
	if len(out.Full) != len(want) {
		t.Fatalf("got %d values", len(out.Full))
	}
	for i, w := range want {
		if string(out.Full[i]) != w {
			t.Fatalf("value %d: %s, want %s", i, out.Full[i], w)
		}
	}
}

// discardWriter counts bytes; the stream's sink for the memory test.
type discardWriter struct {
	h http.Header
	n int64
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// TestStreamConstantMemory is the acceptance check for the streaming
// rewrite: streaming a 1M-vertex result must allocate O(page) memory —
// the old path materialised a []jsonFloat copy (8 MB) plus the encoder's
// buffer of the entire indented document (~20 MB).
func TestStreamConstantMemory(t *testing.T) {
	vals := make([]float64, 1_000_000)
	for i := range vals {
		vals[i] = float64(i) * 1.25
	}
	vals[17] = math.Inf(1) // non-finite values must not break the fast path
	st := jobs.Status{ID: "big", State: "done"}
	d := &discardWriter{h: make(http.Header)}
	streamFullResult(d, st, vals, resultPage{limit: -1, total: len(vals)}) // warm up

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streamFullResult(d, st, vals, resultPage{limit: -1, total: len(vals)})
	runtime.ReadMemStats(&after)

	if d.n < 2*8_000_000 { // sanity: two streams of ~1M values actually flowed
		t.Fatalf("stream wrote only %d bytes", d.n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > 1<<20 {
		t.Fatalf("streaming 1M values allocated %d bytes, want O(page) (<1MiB)", alloc)
	}
}

// failAfterWriter simulates a client disconnect: writes error out after a
// budget is spent, like an http.ResponseWriter on a closed connection.
type failAfterWriter struct {
	h      http.Header
	budget int
	n      int
}

func (f *failAfterWriter) Header() http.Header { return f.h }
func (f *failAfterWriter) WriteHeader(int)     {}
func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n >= f.budget {
		return 0, errors.New("client disconnected")
	}
	f.n += len(p)
	return len(p), nil
}

// TestStreamClientDisconnect: a mid-chunk disconnect must stop the stream
// promptly instead of iterating the rest of a million values into a dead
// socket (or panicking).
func TestStreamClientDisconnect(t *testing.T) {
	vals := make([]float64, 1_000_000)
	f := &failAfterWriter{h: make(http.Header), budget: 64 << 10}
	done := make(chan struct{})
	go func() {
		streamFullResult(f, jobs.Status{ID: "j", State: "done"}, vals, resultPage{limit: -1, total: len(vals)})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not return after the client disconnected")
	}
	// bufio reports the failure one flush after the budget: the stream
	// must have stopped within a couple of chunks, not drained the array.
	if f.n > f.budget+2*streamChunkBytes {
		t.Fatalf("wrote %d bytes into a dead connection (budget %d)", f.n, f.budget)
	}
}

// ---------- topK total order (bugfix regression) ----------

// TestTopKTotalOrder: the old sort.Slice comparator violated strict weak
// ordering under NaN (va != vb is true for NaN pairs, va > vb always
// false), making output nondeterministic. The heap's explicit classes fix
// the order: +Inf first, finite descending, -Inf, NaN last; equal values
// break toward the lower vertex ID.
func TestTopKTotalOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{nan, 3, inf, nan, 5, -math.Inf(1), 5, nan, 1, inf}
	got := topK(vals, len(vals))
	wantVertex := []uint32{2, 9, 4, 6, 1, 8, 5, 0, 3, 7}
	if len(got) != len(wantVertex) {
		t.Fatalf("got %d rows", len(got))
	}
	for i, w := range wantVertex {
		if got[i].Vertex != w {
			t.Fatalf("rank %d: vertex %d, want %d (full: %+v)", i, got[i].Vertex, w, got)
		}
	}
	// Determinism: identical output across repeats (the old comparator
	// could legally return anything for NaN-laden input).
	for run := 0; run < 10; run++ {
		again := topK(vals, len(vals))
		for i := range got {
			if again[i].Vertex != got[i].Vertex {
				t.Fatalf("run %d diverged at rank %d", run, i)
			}
		}
	}
	// k < N keeps the same prefix.
	for _, k := range []int{1, 3, 7} {
		head := topK(vals, k)
		if len(head) != k {
			t.Fatalf("topK(%d) returned %d rows", k, len(head))
		}
		for i := 0; i < k; i++ {
			if head[i].Vertex != got[i].Vertex {
				t.Fatalf("topK(%d) rank %d: vertex %d, want %d", k, i, head[i].Vertex, got[i].Vertex)
			}
		}
	}
	// Tie-break regression: equal finite values rank lower IDs first.
	ties := topK([]float64{2, 7, 7, 7, 1}, 3)
	for i, w := range []uint32{1, 2, 3} {
		if ties[i].Vertex != w {
			t.Fatalf("tie-break: %+v", ties)
		}
	}
}

// ---------- stale manifest on mutable graphs (bugfix regression) ----------

// TestMutableManifestRefresh: validate/estimateBytes used the manifest
// snapshot taken at open, so a mutable graph's admission estimates never
// moved as ingest grew the edge volume. They now read the store's current
// snapshot.
func TestMutableManifestRefresh(t *testing.T) {
	dir, g := buildLayoutDir(t, 8, 11, 3)
	s, _ := newTestServer(t, Config{Graphs: []GraphConfig{{
		Name: "m", Dir: dir, Profile: storage.SSD,
		Mutable: true, MemtableBytes: 1, // seal after every batch
	}}})

	req := jobs.Request{Graph: "m", Algorithm: "pr"}
	before := s.estimateBytes(req)
	if before <= 0 {
		t.Fatalf("estimate before ingest: %d", before)
	}
	// Ingest a dense wave of new edges and fold it into the base grid.
	var muts []delta.Mutation
	for src := 0; src < g.NumVertices; src++ {
		for d := 1; d <= 4; d++ {
			muts = append(muts, delta.Mutation{
				Op:  delta.OpInsert,
				Src: graph.VertexID(src), Dst: graph.VertexID((src + d*37) % g.NumVertices),
			})
		}
	}
	if err := s.Store("m").Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Store("m").Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.estimateBytes(req)
	if after <= before {
		t.Fatalf("admission estimate did not grow with the graph: before=%d after=%d (stale manifest)", before, after)
	}
	// And validation still tracks the live vertex bound.
	if err := s.validate(jobs.Request{Graph: "m", Algorithm: "pr", Source: uint32(g.NumVertices - 1)}); err != nil {
		t.Fatalf("in-range source rejected: %v", err)
	}
	if err := s.validate(jobs.Request{Graph: "m", Algorithm: "pr", Source: uint32(g.NumVertices)}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// ---------- tenant isolation e2e ----------

func authedReq(t *testing.T, method, url, token string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return req
}

func doJSON(t *testing.T, req *http.Request, v any) int {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

func tenantCfg(dir string) Config {
	return Config{
		Graphs: []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD, Mutable: true}},
		Tenants: []jobs.Tenant{
			{Name: "alice", Token: "tok-alice", MaxQueued: 1, MutationBytesPerSec: 512},
			{Name: "bob", Token: "tok-bob"},
			{Name: "carol", Token: "tok-carol", MutationBytesPerSec: 512},
		},
		Workers: 1, QueueDepth: 16,
	}
}

func TestTenantAuthAndIsolation(t *testing.T) {
	dir, _ := buildLayoutDir(t, 8, 5, 2)
	_, ts := newTestServer(t, tenantCfg(dir))

	// No token and a bad token are 401 with a challenge; the unauthenticated
	// probes /healthz and /metrics stay open.
	for _, tok := range []string{"", "tok-wrong"} {
		resp, err := http.DefaultClient.Do(authedReq(t, "GET", ts.URL+"/v1/jobs", tok, nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("token %q: HTTP %d, challenge %q", tok, resp.StatusCode, resp.Header.Get("WWW-Authenticate"))
		}
	}
	for _, open := range []string{"/healthz", "/metrics"} {
		if code := getJSON(t, ts.URL+open, nil); code != http.StatusOK {
			t.Fatalf("%s without token: HTTP %d", open, code)
		}
	}

	// Alice submits; the job is stamped with her tenant.
	body, _ := json.Marshal(jobs.Request{Graph: "g", Algorithm: "pr"})
	var st jobs.Status
	if code := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/jobs", "tok-alice", body), &st); code != http.StatusAccepted {
		t.Fatalf("alice submit: HTTP %d", code)
	}
	if st.Tenant != "alice" {
		t.Fatalf("job tenant %q, want alice", st.Tenant)
	}
	// Impersonation: alice's token cannot submit as bob.
	imp, _ := json.Marshal(jobs.Request{Graph: "g", Algorithm: "pr", Tenant: "bob"})
	if code := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/jobs", "tok-alice", imp), nil); code != http.StatusForbidden {
		t.Fatalf("impersonation: HTTP %d, want 403", code)
	}

	// Cross-tenant visibility: bob gets 404 on alice's job ID — same as a
	// bogus ID — on status, result, and cancel; and his listing is empty.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/" + st.ID},
		{"GET", "/v1/jobs/" + st.ID + "/result"},
		{"POST", "/v1/jobs/" + st.ID + "/cancel"},
	} {
		if code := doJSON(t, authedReq(t, probe.method, ts.URL+probe.path, "tok-bob", nil), nil); code != http.StatusNotFound {
			t.Fatalf("bob %s %s: HTTP %d, want 404", probe.method, probe.path, code)
		}
	}
	var listA, listB struct {
		Jobs  []jobs.Status `json:"jobs"`
		Total int           `json:"total"`
	}
	doJSON(t, authedReq(t, "GET", ts.URL+"/v1/jobs", "tok-alice", nil), &listA)
	doJSON(t, authedReq(t, "GET", ts.URL+"/v1/jobs", "tok-bob", nil), &listB)
	if listA.Total != 1 || len(listA.Jobs) != 1 || listA.Jobs[0].ID != st.ID {
		t.Fatalf("alice's listing: %+v", listA)
	}
	if listB.Total != 0 || len(listB.Jobs) != 0 {
		t.Fatalf("bob sees alice's jobs: %+v", listB)
	}
}

func TestTenantQuotas429(t *testing.T) {
	dir, _ := buildLayoutDir(t, 8, 5, 2)
	_, ts := newTestServer(t, tenantCfg(dir))

	// Queue quota: alice is capped at one queued job. Jobs drain at CPU
	// speed (device time is simulated), so a serial loop never observes a
	// full queue — burst concurrently so submissions outrun the single
	// worker. The cap must bite with 429 while admissions still happen.
	body, _ := json.Marshal(jobs.Request{Graph: "g", Algorithm: "pr", MaxIterations: 500})
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if accepted.Load() > 0 && rejected.Load() > 0 {
					return
				}
				code := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/jobs", "tok-alice", body), nil)
				switch code {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("burst submit: HTTP %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if accepted.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("queue quota never engaged: %d accepted, %d rejected", accepted.Load(), rejected.Load())
	}

	// Mutation rate: alice's budget is 512 B/s with a 512 B burst. The
	// first oversized batch rides the full bucket into debt; the second
	// must bounce with 429 + Retry-After.
	muts := `{"mutations":[`
	for i := 0; i < 40; i++ {
		if i > 0 {
			muts += ","
		}
		muts += fmt.Sprintf(`{"op":"insert","src":%d,"dst":%d}`, i, i+1)
	}
	muts += `]}`
	if len(muts) < 600 {
		t.Fatalf("test batch too small to exceed the burst: %d bytes", len(muts))
	}
	first := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/graphs/g/edges", "tok-alice", []byte(muts)), nil)
	if first != http.StatusOK {
		t.Fatalf("first batch: HTTP %d", first)
	}
	resp, err := http.DefaultClient.Do(authedReq(t, "POST", ts.URL+"/v1/graphs/g/edges", "tok-alice", []byte(muts)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("second batch: HTTP %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// Bob is unmetered: the same batch lands.
	if code := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/graphs/g/edges", "tok-bob", []byte(muts)), nil); code != http.StatusOK {
		t.Fatalf("bob's batch: HTTP %d", code)
	}
	// A chunked body declares no length, and is metered all the same: carol,
	// on alice's budget, lands one chunked batch and bounces the second.
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		req := authedReq(t, "POST", ts.URL+"/v1/graphs/g/edges", "tok-carol", []byte(muts))
		req.ContentLength = -1 // unknown length: the client sends the body chunked
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want || (want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "") {
			t.Fatalf("chunked batch %d: HTTP %d, Retry-After %q, want %d", i+1, resp.StatusCode, resp.Header.Get("Retry-After"), want)
		}
	}
}

// ---------- retention over HTTP (leak bugfix) ----------

func TestRetentionOverHTTP(t *testing.T) {
	dir, _ := buildLayoutDir(t, 8, 3, 2)
	_, ts := newTestServer(t, Config{
		Graphs:     []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}},
		RetainJobs: 3, Workers: 1,
	})
	var ids []string
	for i := 0; i < 8; i++ {
		code, st := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr", Source: uint32(i)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		waitDone(t, ts, st.ID) // serialise: finish order == submission order
		ids = append(ids, st.ID)
	}
	// The oldest five are gone — status and result both 404.
	for _, id := range ids[:5] {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); code != http.StatusNotFound {
			t.Fatalf("evicted job %s: HTTP %d, want 404", id, code)
		}
	}
	// The newest three still serve results.
	for _, id := range ids[5:] {
		var res struct {
			Top []struct{} `json:"top"`
		}
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK || len(res.Top) == 0 {
			t.Fatalf("retained job %s: HTTP %d, %d top rows", id, code, len(res.Top))
		}
	}
	// The listing is bounded and the counters tell the truth.
	var list struct {
		Jobs  []jobs.Status `json:"jobs"`
		Total int           `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if list.Total != 3 || len(list.Jobs) != 3 {
		t.Fatalf("bounded listing: total=%d len=%d", list.Total, len(list.Jobs))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := copyAll(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"graphsd_jobs_evicted_total 5", "graphsd_jobs_retained 3"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

func copyAll(dst *strings.Builder, src interface{ Read([]byte) (int, error) }) (int64, error) {
	buf := make([]byte, 32<<10)
	var n int64
	for {
		k, err := src.Read(buf)
		dst.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

func TestListPagination(t *testing.T) {
	dir, _ := buildLayoutDir(t, 8, 9, 2)
	_, ts := newTestServer(t, Config{Graphs: []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD}}, Workers: 1})
	var ids []string
	for i := 0; i < 7; i++ {
		code, st := postJob(t, ts, jobs.Request{Graph: "g", Algorithm: "pr", Source: uint32(i)})
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		ids = append(ids, st.ID)
	}
	var page struct {
		Jobs       []jobs.Status `json:"jobs"`
		Total      int           `json:"total"`
		Offset     int           `json:"offset"`
		NextOffset *int          `json:"next_offset"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?offset=2&limit=3", &page); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if page.Total != 7 || page.Offset != 2 || len(page.Jobs) != 3 || page.Jobs[0].ID != ids[2] {
		t.Fatalf("page: total=%d offset=%d len=%d", page.Total, page.Offset, len(page.Jobs))
	}
	if page.NextOffset == nil || *page.NextOffset != 5 {
		t.Fatalf("next_offset: %v", page.NextOffset)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?offset=100", &page); code != http.StatusOK || len(page.Jobs) != 0 || page.Total != 7 {
		t.Fatalf("offset past end: HTTP %d len=%d total=%d", code, len(page.Jobs), page.Total)
	}
	// A limit at or past the end, however large, lists through the end;
	// offset+limit overflowing must not panic the handler.
	for _, tc := range []struct {
		name  string
		limit int
		want  int // jobs in the page after offset 1
	}{
		{"limit-short", 5, 5},
		{"limit-exact", 6, 6},
		{"limit-past-end", 7, 6},
		{"limit-huge", math.MaxInt64, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rest struct {
				Jobs       []jobs.Status `json:"jobs"`
				Total      int           `json:"total"`
				NextOffset *int          `json:"next_offset"`
			}
			if code := getJSON(t, fmt.Sprintf("%s/v1/jobs?offset=1&limit=%d", ts.URL, tc.limit), &rest); code != http.StatusOK || len(rest.Jobs) != tc.want || rest.Total != 7 {
				t.Fatalf("HTTP %d len=%d total=%d, want %d of 7", code, len(rest.Jobs), rest.Total, tc.want)
			}
			if more := 1+tc.want < 7; more != (rest.NextOffset != nil) || more && *rest.NextOffset != 1+tc.want {
				t.Fatalf("next_offset %v after %d jobs from offset 1 of 7", rest.NextOffset, tc.want)
			}
			if last := rest.Jobs[len(rest.Jobs)-1].ID; last != ids[tc.want] {
				t.Fatalf("last job %s, want %s", last, ids[tc.want])
			}
		})
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit: HTTP %d", code)
	}
}

// ---------- fair share over HTTP ----------

// TestServeFairShareOverHTTP: two equal-weight tenants share one worker. The
// flood tenant's first job is parked inside a block read while the flood
// tenant queues 12 more behind it; then the quiet tenant submits one job and
// the flood tenant posts a mutation batch. When the read is released, stride
// order decides who runs next, not the clock: the flood's pass advanced when
// its first job was dequeued, so the quiet job starts ahead of the backlog.
func TestServeFairShareOverHTTP(t *testing.T) {
	dir, _ := buildLayoutDir(t, 9, 13, 4)
	s, ts := newTestServer(t, Config{
		Graphs: []GraphConfig{{Name: "g", Dir: dir, Profile: storage.HDD, Mutable: true}},
		Tenants: []jobs.Tenant{
			{Name: "quiet", Token: "tok-quiet"},
			{Name: "flood", Token: "tok-flood"},
		},
		Workers: 1, QueueDepth: 32,
	})
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before the server Close registered earlier
	// Only the first block read parks — the first job's. The mutation batch
	// reads the base grid too, and must pass.
	var first atomic.Bool
	parked := make(chan struct{})
	_, dev, _ := s.Graph("g")
	dev.SetFaultInjector(func(op, name string) error {
		if strings.HasPrefix(op, "read") && strings.HasPrefix(name, "blocks/") && first.CompareAndSwap(false, true) {
			close(parked)
			<-gate
		}
		return nil
	})

	submit := func(token string, source uint32) string {
		body, _ := json.Marshal(jobs.Request{Graph: "g", Algorithm: "pr", Source: source, MaxIterations: 3})
		var st jobs.Status
		if code := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/jobs", token, body), &st); code != http.StatusAccepted {
			t.Fatalf("submit as %s: HTTP %d", token, code)
		}
		return st.ID
	}
	// done polls the job to "done"; the deadline only turns a hang into a
	// failure.
	done := func(token, id string) jobs.Status {
		for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			var st jobs.Status
			if code := doJSON(t, authedReq(t, "GET", ts.URL+"/v1/jobs/"+id, token, nil), &st); code != http.StatusOK {
				t.Fatalf("status of %s as %s: HTTP %d", id, token, code)
			}
			switch st.State {
			case "done":
				return st
			case "failed", "cancelled", "expired":
				t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
			}
		}
		t.Fatalf("job %s never finished", id)
		return jobs.Status{}
	}

	head := submit("tok-flood", 0)
	select {
	case <-parked:
	case <-time.After(60 * time.Second):
		t.Fatal("the first job never reached a block read")
	}
	var backlog []string
	for i := 1; i <= 12; i++ {
		backlog = append(backlog, submit("tok-flood", uint32(i)))
	}
	quiet := submit("tok-quiet", 0)
	mut := `{"mutations":[{"op":"insert","src":1,"dst":2}]}`
	if code := doJSON(t, authedReq(t, "POST", ts.URL+"/v1/graphs/g/edges", "tok-flood", []byte(mut)), nil); code != http.StatusOK {
		t.Fatalf("flood tenant's mutation batch: HTTP %d", code)
	}
	release()

	done("tok-flood", head)
	started := func(st jobs.Status) time.Time {
		at, err := time.Parse(time.RFC3339Nano, st.Started)
		if err != nil {
			t.Fatalf("job %s started stamp %q: %v", st.ID, st.Started, err)
		}
		return at
	}
	quietStart := started(done("tok-quiet", quiet))
	ahead := 0
	for _, id := range backlog {
		if started(done("tok-flood", id)).After(quietStart) {
			ahead++
		}
	}
	if ahead < 10 {
		t.Fatalf("the quiet job started ahead of %d of the %d queued flood jobs, want at least 10", ahead, len(backlog))
	}
}
