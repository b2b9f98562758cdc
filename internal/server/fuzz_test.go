package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/storage"
)

// fuzzServer serves one small mutable graph, "m" (64 vertices), for a fuzz
// target: built once per target, shared by its inputs. One worker, a queue of
// two and a one-second default timeout keep accepted jobs from piling up.
func fuzzServer(f *testing.F) (*Server, *httptest.Server) {
	dir, _ := buildLayoutDir(f, 6, 3, 2)
	return newTestServer(f, Config{
		Graphs:  []GraphConfig{{Name: "m", Dir: dir, Profile: storage.SSD, Mutable: true}},
		Workers: 1, QueueDepth: 2, JobTimeout: time.Second, RetainJobs: 8,
	})
}

// post sends body to path and returns the status and the response body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// FuzzSubmitBody posts arbitrary bytes as a job request. The server may
// accept the job or refuse it as a bad request, a forbidden tenant or a full
// queue — 202, 400, 403 or 429 — and nothing else: no 5xx, no panic.
func FuzzSubmitBody(f *testing.F) {
	_, ts := fuzzServer(f)
	for _, seed := range []string{
		`{"graph":"m","algorithm":"pr","max_iterations":2}`,
		`{"graph":"m","algorithm":"bfs","source":3,"timeout_ms":50}`,
		`{"graph":"m","algorithm":"cc","tenant":"someone"}`,
		`{"graph":"m","algorithm":"pr","deadline":"2000-01-01T00:00:00Z"}`,
		`{"graph":"m","algorithm":"pr","source":4294967295}`,
		`{"graph":"m","algorithm":"pr","max_iterations":-1}`,
		`{"graph":"m","algorithm":"nope"}`,
		`{"graph":"x","algorithm":"pr"}`,
		`{"graph":"m","algorithm":"pr","extra":1}`,
		`{"graph":"m","algorithm":"pr","source":1.5}`,
		`{"graph":"m"`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		switch code, out := post(t, ts, "/v1/jobs", body); code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusForbidden, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /v1/jobs %q: HTTP %d %s", body, code, out)
		}
	})
}

// FuzzMutateBody posts arbitrary bytes as a mutation batch. The server
// acknowledges the whole batch (200) or refuses the whole batch (400). A 200
// acknowledges exactly the batch's mutations and raises mutations_total by
// at least its inserts and at most its length: a delete of an edge that is
// not there is acknowledged but applies nothing, so it is not counted. A 400
// moves neither.
func FuzzMutateBody(f *testing.F) {
	s, ts := fuzzServer(f)
	store := s.Store("m")
	for _, seed := range []string{
		`{"mutations":[{"op":"insert","src":1,"dst":2}]}`,
		`{"mutations":[{"op":"insert","src":5,"dst":9},{"op":"delete","src":5,"dst":9},{"op":"insert","src":5,"dst":9,"weight":2}]}`,
		`{"mutations":[{"op":"delete","src":63,"dst":62}]}`,
		`{"mutations":[{"op":"upsert","src":1,"dst":2}]}`,
		`{"mutations":[{"op":"insert","src":64,"dst":0}]}`,
		`{"mutations":[{"op":"insert","src":-1,"dst":0}]}`,
		`{"mutations":[{"op":"insert","src":1,"dst":2}],"extra":true}`,
		`{"mutations":[{"op":"insert","src":1,"dst":2}]} trailing`,
		`{"mutations":[]}`,
		`{"mutations":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := store.Stats()
		code, out := post(t, ts, "/v1/graphs/m/edges", body)
		after := store.Stats()
		total, acked := after.MutationsTotal-before.MutationsTotal, after.Accepted-before.Accepted
		switch code {
		case http.StatusOK:
			// The batch the handler decoded: the first JSON value of body.
			var batch struct {
				Mutations []mutationReq `json:"mutations"`
			}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			inserts := int64(0)
			for _, m := range batch.Mutations {
				if m.Op == "insert" {
					inserts++
				}
			}
			if n := int64(len(batch.Mutations)); acked != n || total < inserts || total > n {
				t.Fatalf("200 for %d mutations (%d inserts): %d acknowledged, mutations_total +%d", n, inserts, acked, total)
			}
		case http.StatusBadRequest:
			if total != 0 || acked != 0 {
				t.Fatalf("400 %s: mutations_total +%d, %d acknowledged", out, total, acked)
			}
		default:
			t.Fatalf("POST /v1/graphs/m/edges %q: HTTP %d %s", body, code, out)
		}
	})
}
