package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeEndToEnd is the serving smoke test: boot the real `graphsd
// serve` binary, submit two concurrent jobs over HTTP, read their results,
// scrape /metrics, then SIGTERM and require a clean exit within 5 seconds.
// Then boot it again with `-tenants FILE -retain-jobs N` and check
// authentication and cross-tenant isolation.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	layoutDir := filepath.Join(dir, "layout")
	run(t, graphgenBin, "-kind", "rmat", "-scale", "10", "-edgefactor", "8", "-o", graphPath)
	run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "4")

	p := startServe(t, "-graph", "rmat10="+layoutDir, "-workers", "2", "-queue", "8", "-retries", "3")
	base := p.base

	// Liveness.
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Two concurrent jobs.
	submit := func(alg string, source uint32) string {
		body := fmt.Sprintf(`{"graph":"rmat10","algorithm":%q,"source":%d}`, alg, source)
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit %s: HTTP %d: %s", alg, resp.StatusCode, b)
		}
		var st struct {
			ID string `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&st)
		if st.ID == "" {
			t.Fatalf("submit %s: empty job id", alg)
		}
		return st.ID
	}
	ids := []string{submit("pr", 0), submit("bfs", 1)}

	for _, id := range ids {
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.State == "done" {
				break
			}
			if st.State == "failed" || st.State == "cancelled" {
				t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result?top=3")
		if err != nil {
			t.Fatal(err)
		}
		// Value is a RawMessage: bfs renders unreachable distances as
		// the JSON string "Infinity", not a number.
		var res struct {
			Top []struct {
				Vertex uint32          `json:"vertex"`
				Value  json.RawMessage `json:"value"`
			} `json:"top"`
		}
		json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(res.Top) != 3 {
			t.Fatalf("result %s: HTTP %d, %d rows", id, resp.StatusCode, len(res.Top))
		}
	}

	// Scrape /metrics and check the aggregated counter families are there.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metricsBody := string(mb)
	for _, want := range []string{
		`graphsd_jobs_total{state="done"} 2`,
		`graphsd_device_read_bytes_total{graph="rmat10"}`,
		`graphsd_device_retries_total{graph="rmat10"}`,
		`graphsd_shared_cache_hits_total{graph="rmat10"}`,
		`graphsd_pipeline_fallbacks_total{graph="rmat10"}`,
		"graphsd_uptime_seconds",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Graceful shutdown: SIGTERM, clean exit within 5s.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.done:
		out := p.output()
		p.done <- nil // let the cleanup's receive proceed
		if err != nil {
			t.Fatalf("server exited with error: %v\n%s", err, out)
		}
		if !strings.Contains(out, "shutdown complete") {
			t.Fatalf("no clean shutdown message:\n%s", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit within 5s of SIGTERM")
	}

	// The same layout served multi-tenant from a tenants file: a request
	// without a token is 401, a job round-trips with one, and the other
	// tenant gets the same 404 for that job as for a bogus ID.
	tenantsPath := filepath.Join(dir, "tenants.json")
	tenants := `{"tenants":[{"name":"alpha","token":"tok-alpha"},{"name":"beta","token":"tok-beta"}]}`
	if err := os.WriteFile(tenantsPath, []byte(tenants), 0o644); err != nil {
		t.Fatal(err)
	}
	mt := startServe(t, "-graph", "rmat10="+layoutDir, "-tenants", tenantsPath, "-retain-jobs", "4")
	call := func(method, path, token, body string, v any) int {
		t.Helper()
		req, err := http.NewRequest(method, mt.base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
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
	job := `{"graph":"rmat10","algorithm":"bfs","source":1}`
	if code := call("POST", "/v1/jobs", "", job, nil); code != http.StatusUnauthorized {
		t.Fatalf("submit without a token: HTTP %d, want 401", code)
	}
	var st jobStatus
	if code := call("POST", "/v1/jobs", "tok-alpha", job, &st); code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("alpha's submit: HTTP %d, %+v", code, st)
	}
	for deadline := time.Now().Add(60 * time.Second); st.State != "done"; time.Sleep(10 * time.Millisecond) {
		if code := call("GET", "/v1/jobs/"+st.ID, "tok-alpha", "", &st); code != http.StatusOK {
			t.Fatalf("alpha's status: HTTP %d", code)
		}
		if st.State == "failed" || st.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("alpha's job: %+v", st)
		}
	}
	if code := call("GET", "/v1/jobs/"+st.ID+"/result?top=3", "tok-alpha", "", nil); code != http.StatusOK {
		t.Fatalf("alpha's result: HTTP %d", code)
	}
	if code := call("GET", "/v1/jobs/"+st.ID, "tok-beta", "", nil); code != http.StatusNotFound {
		t.Fatalf("beta reading alpha's job: HTTP %d, want 404", code)
	}
}
