package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/storage"
)

// durableConfig is the one-graph durable server config the restart suite
// reopens across simulated crashes.
func durableConfig(layoutDir, journalDir string, async bool) Config {
	return Config{
		Graphs:     []GraphConfig{{Name: "g", Dir: layoutDir, Profile: storage.HDD, Async: async}},
		Workers:    1,
		QueueDepth: 16,
		JournalDir: journalDir,
	}
}

// waitJob polls a job until it reaches want.
func waitJob(t *testing.T, j *jobs.Job, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s (err: %v)", j.ID(), j.State(), want, j.Err())
}

// refOutputs runs req on a fresh non-durable server and returns the
// uninterrupted run's outputs — the bit-identical yardstick for recovery.
func refOutputs(t *testing.T, layoutDir string, async bool, req jobs.Request) []float64 {
	t.Helper()
	cfg := durableConfig(layoutDir, "", async)
	cfg.JournalDir = ""
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	j, err := s.Scheduler().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, jobs.Done)
	res := j.Result()
	if res == nil {
		t.Fatal("reference run returned no result")
	}
	return append([]float64(nil), res.Outputs...)
}

// killMidRun waits until j has completed at least minIter iterations (so at
// least one engine checkpoint is durably on disk), then freezes the graph
// device and kills the server — the in-process equivalent of SIGKILL at an
// arbitrary point inside an iteration.
func killMidRun(t *testing.T, s *Server, j *jobs.Job, minIter int) {
	t.Helper()
	_, dev, _ := s.Graph("g")
	gate := make(chan struct{})
	var armed atomic.Bool
	dev.SetFaultInjector(func(op, name string) error {
		if armed.Load() && strings.HasPrefix(op, "read") {
			<-gate
		}
		return nil
	})
	deadline := time.Now().Add(60 * time.Second)
	for j.Status().Iterations < minIter {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached iteration %d (state %s, err %v)",
				j.ID(), minIter, j.State(), j.Err())
		}
		time.Sleep(500 * time.Microsecond)
	}
	armed.Store(true)
	killErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		killErr <- s.Kill(ctx)
	}()
	// Give the kill's context cancellation a moment to land, then unfreeze
	// the device so the aborted engine can observe it and the workers exit.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := <-killErr; err != nil {
		t.Fatalf("kill: %v", err)
	}
}

// TestServerRestartResume is the tentpole scenario, in both engine modes: a
// server is SIGKILL-equivalently killed mid-run; the restarted server must
// keep finished jobs finished, resume the interrupted job from its engine
// checkpoint, and produce outputs bit-identical to an uninterrupted run.
func TestServerRestartResume(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 11, 7, 4)
	cases := []struct {
		name  string
		async bool
		req   jobs.Request
	}{
		// pr is non-monotonic: BSP in either mode. cc under Async exercises
		// the async scheduler's checkpoint format.
		{"bsp", false, jobs.Request{Graph: "g", Algorithm: "pr"}},
		{"async", true, jobs.Request{Graph: "g", Algorithm: "cc"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := refOutputs(t, layoutDir, tc.async, tc.req)
			jdir := t.TempDir()

			s1, err := New(durableConfig(layoutDir, jdir, tc.async))
			if err != nil {
				t.Fatal(err)
			}
			// A quick job that finishes before the crash: it must be
			// recovered terminal, not re-run.
			quick, err := s1.Scheduler().Submit(jobs.Request{Graph: "g", Algorithm: "bfs", Source: 1, MaxIterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, quick, jobs.Done)
			long, err := s1.Scheduler().Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			killMidRun(t, s1, long, 2)
			if !checkpointDirExists(t, jdir, long.ID()) {
				t.Fatal("no checkpoint on disk after mid-run kill")
			}

			s2, err := New(durableConfig(layoutDir, jdir, tc.async))
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s2.Close(ctx)
			}()
			rec := s2.Recovery()
			if rec.Recovered != 1 || rec.Requeued != 1 || rec.Resumable != 1 || rec.Lost != 0 {
				t.Fatalf("recovery = %+v, want recovered=1 requeued=1 resumable=1 lost=0", rec)
			}

			q2, ok := s2.Scheduler().Get(quick.ID())
			if !ok || q2.State() != jobs.Done {
				t.Fatalf("finished job after restart: ok=%v state=%v", ok, q2.State())
			}
			l2, ok := s2.Scheduler().Get(long.ID())
			if !ok {
				t.Fatalf("interrupted job %s lost across restart", long.ID())
			}
			waitJob(t, l2, jobs.Done)
			res := l2.Result()
			if res == nil {
				t.Fatal("recovered job has no result")
			}
			if !res.Resumed {
				t.Fatal("recovered job re-ran from scratch instead of resuming its checkpoint")
			}
			if tc.async != res.Async.Enabled {
				t.Fatalf("async mode flipped across restart: %v", res.Async.Enabled)
			}
			if len(res.Outputs) != len(ref) {
				t.Fatalf("output length %d vs reference %d", len(res.Outputs), len(ref))
			}
			for i := range ref {
				if res.Outputs[i] != ref[i] {
					t.Fatalf("vertex %d: resumed %v != uninterrupted %v — recovery not bit-identical", i, res.Outputs[i], ref[i])
				}
			}
			// The durability metric families must have moved across the
			// restart.
			assertRestartMetrics(t, s2)
		})
	}
}

// checkpointDirExists reports whether the job's checkpoint directory exists
// under the journal dir's checkpoint root.
func checkpointDirExists(t *testing.T, journalDir, id string) bool {
	t.Helper()
	fi, err := os.Stat(filepath.Join(journalDir, "checkpoints", id))
	return err == nil && fi.IsDir()
}

// assertRestartMetrics scrapes /metrics on a restarted server and checks the
// recovery and journal families report the restart.
func assertRestartMetrics(t *testing.T, s *Server) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code := 0
	body := ""
	{
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		code, body = resp.StatusCode, buf.String()
	}
	if code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"graphsd_jobs_recovered_total 1",
		"graphsd_jobs_requeued_total 1",
		"graphsd_jobs_lost_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The replay saw records and the restarted process appended new ones
	// (start/final of the resumed job).
	for _, name := range []string{"graphsd_journal_replay_records_total", "graphsd_journal_records_total", "graphsd_journal_bytes_total"} {
		v, ok := metricValue(body, name)
		if !ok || v <= 0 {
			t.Errorf("metric %s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	if _, ok := metricValue(body, "graphsd_journal_replay_seconds"); !ok {
		t.Error("metrics missing graphsd_journal_replay_seconds")
	}
}

// metricValue extracts an unlabelled sample's value from a Prometheus text
// body.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestServerRestartModeMismatch: a BSP checkpoint cannot seed an async run.
// The restarted server — now configured async — must discard the stale
// checkpoint and re-run the recovered job from scratch rather than fail it.
func TestServerRestartModeMismatch(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 11, 3, 4)
	// cc is monotonic: BSP when Async=false, async-scheduled when true.
	req := jobs.Request{Graph: "g", Algorithm: "cc"}
	ref := refOutputs(t, layoutDir, true, req)
	jdir := t.TempDir()

	s1, err := New(durableConfig(layoutDir, jdir, false))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Scheduler().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	killMidRun(t, s1, j, 1)
	if !checkpointDirExists(t, jdir, j.ID()) {
		t.Fatal("no BSP checkpoint on disk after kill")
	}

	s2, err := New(durableConfig(layoutDir, jdir, true)) // async now
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()
	if rec := s2.Recovery(); rec.Requeued != 1 || rec.Lost != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	j2, _ := s2.Scheduler().Get(j.ID())
	waitJob(t, j2, jobs.Done)
	res := j2.Result()
	if res == nil {
		t.Fatal("no result after mismatch re-run")
	}
	if res.Resumed {
		t.Fatal("async run resumed a BSP checkpoint — mode mismatch not detected")
	}
	if !res.Async.Enabled {
		t.Fatal("recovered job did not run async")
	}
	for i := range ref {
		if res.Outputs[i] != ref[i] {
			t.Fatalf("vertex %d: %v != %v after mismatch re-run", i, res.Outputs[i], ref[i])
		}
	}
}

// TestServerRestartHostileCheckpoint: a CRC-valid checkpoint whose value count
// overflowed the reader's length check used to panic in checkpoint.Load, and
// with it the restarted server. It must be discarded like any corrupt one: the
// recovered job re-runs from scratch, nothing is lost, the result is exact.
func TestServerRestartHostileCheckpoint(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 11, 3, 4)
	req := jobs.Request{Graph: "g", Algorithm: "pr"}
	ref := refOutputs(t, layoutDir, false, req)
	hostile, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", "hostile_count.bin"))
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	s1, err := New(durableConfig(layoutDir, jdir, false))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Scheduler().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	killMidRun(t, s1, j, 1)
	if !checkpointDirExists(t, jdir, j.ID()) {
		t.Fatal("no checkpoint on disk after kill")
	}
	// In every slot: a valid image in the other would be resumed instead.
	ckDir := filepath.Join(jdir, "checkpoints", j.ID())
	for _, slot := range []string{checkpoint.Path(ckDir), checkpoint.SparePath(ckDir)} {
		if err := os.WriteFile(slot, hostile, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(durableConfig(layoutDir, jdir, false))
	if err != nil {
		t.Fatalf("restart over a hostile checkpoint: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()
	if rec := s2.Recovery(); rec.Requeued != 1 || rec.Lost != 0 {
		t.Fatalf("recovery = %+v, want requeued=1 lost=0", rec)
	}
	j2, _ := s2.Scheduler().Get(j.ID())
	waitJob(t, j2, jobs.Done)
	res := j2.Result()
	if res == nil {
		t.Fatal("no result after the re-run")
	}
	if res.Resumed {
		t.Fatal("the job resumed a checkpoint Load must reject")
	}
	for i := range ref {
		if res.Outputs[i] != ref[i] {
			t.Fatalf("vertex %d: %v != %v after the re-run", i, res.Outputs[i], ref[i])
		}
	}
}

// TestServerRestartCrashPoints sweeps a seeded crash point across the job
// journal's append stream — including the very first submit append — kills
// the server at each, restarts it, and asserts the accounting invariant:
// zero journaled jobs lost, every job terminal after recovery. The final
// point is a torn append (half a frame reaches disk) instead of a clean
// crash.
func TestServerRestartCrashPoints(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 9, 5, 4)
	const points = 20
	for k := 1; k <= points; k++ {
		jdir := t.TempDir()
		s1, err := New(durableConfig(layoutDir, jdir, false))
		if err != nil {
			t.Fatalf("point %d: %v", k, err)
		}
		opts := storage.ChaosOptions{
			Seed:  int64(k),
			Match: func(op, name string) bool { return op == "append" },
		}
		if k == points {
			opts.TornWriteProb = 1 // every append torn: the first one kills the journal
		} else {
			opts.CrashAfterOps = int64(k)
		}
		chaos := storage.NewChaos(opts)
		s1.Journal().SetFaultInjector(chaos.Injector())

		var accepted []*jobs.Job
		for i := 0; i < 4; i++ {
			j, err := s1.Scheduler().Submit(jobs.Request{Graph: "g", Algorithm: "bfs", Source: uint32(i), MaxIterations: 3})
			if err != nil {
				continue // journal down: the submission was refused, the client knows
			}
			accepted = append(accepted, j)
			waitJob(t, j, jobs.Done)
		}
		killCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s1.Kill(killCtx)
		cancel()
		if err != nil {
			t.Fatalf("point %d: kill: %v", k, err)
		}

		s2, err := New(durableConfig(layoutDir, jdir, false))
		if err != nil {
			t.Fatalf("point %d: restart: %v", k, err)
		}
		rec := s2.Recovery()
		if rec.Lost != 0 {
			t.Fatalf("point %d: %d jobs lost (recovery %+v)", k, rec.Lost, rec)
		}
		if got := rec.Recovered + rec.Requeued; got > int64(len(accepted)) {
			t.Fatalf("point %d: replay invented jobs: %d > %d accepted", k, got, len(accepted))
		}
		// Every accepted job whose submit record survived must reach a
		// terminal state on the restarted server; jobs whose submit append
		// crashed were refused at submission and are legitimately absent.
		for _, j := range s2.Scheduler().Jobs() {
			waitJob(t, j, jobs.Done)
		}
		closeCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
		err = s2.Close(closeCtx)
		cancel2()
		if err != nil {
			t.Fatalf("point %d: close: %v", k, err)
		}
	}
}

// TestServerDrain503: submissions during a drain are shed with 503 and a
// Retry-After header — graceful degradation, not queueing into a dying
// process.
func TestServerDrain503(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 9, 8, 4)
	s, err := New(durableConfig(layoutDir, t.TempDir(), false))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(jobs.Request{Graph: "g", Algorithm: "pr"})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("submit during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestServerRecoveredResultGone: a job that finished before the restart
// keeps its terminal status, but its result payload is gone — the API says
// so with 410 instead of pretending the job never ran.
func TestServerRecoveredResultGone(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 9, 4, 4)
	jdir := t.TempDir()
	s1, err := New(durableConfig(layoutDir, jdir, false))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Scheduler().Submit(jobs.Request{Graph: "g", Algorithm: "bfs", Source: 1, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, jobs.Done)
	killCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	s1.Kill(killCtx)
	cancel()

	s2, err := New(durableConfig(layoutDir, jdir, false))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, c := context.WithTimeout(context.Background(), 30*time.Second)
		defer c()
		s2.Close(ctx)
	}()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	var st jobs.Status
	if code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID(), &st); code != 200 || st.State != "done" || !st.Recovered {
		t.Fatalf("recovered status: HTTP %d, %+v", code, st)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID()+"/result", nil); code != 410 {
		t.Fatalf("recovered result: HTTP %d, want 410 Gone", code)
	}
}

// TestPrunedCheckpointDirsStayGone: a job's checkpoint directory is pruned
// right after its final record, so no checkpoint write of the job may land
// after its run returns — one would recreate the directory. Journaled jobs
// checkpoint every step here, one after another on the one worker; each
// job's directory must be gone once the next job is done too, which is long
// after any write its run could have left behind.
func TestPrunedCheckpointDirsStayGone(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 10, 3, 4)
	jdir := t.TempDir()
	cfg := durableConfig(layoutDir, jdir, false)
	cfg.CheckpointEvery = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	var prev *jobs.Job
	for i := 0; i < 16; i++ {
		j, err := s.Scheduler().Submit(jobs.Request{Graph: "g", Algorithm: "pr"})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j, jobs.Done)
		if res := j.Result(); res == nil || res.Checkpoints == 0 {
			t.Fatalf("job %d took no checkpoints: %+v", i, res)
		}
		if prev != nil && checkpointDirExists(t, jdir, prev.ID()) {
			t.Fatalf("job %s's checkpoint directory is back after it was pruned", prev.ID())
		}
		prev = j
	}
}

// TestJournaledEstimatePricesCheckpoint: a journaled job's checkpoint writer
// keeps an encoded image for the whole run, so admission must price it: a
// journaled server's estimate for a request exceeds an unjournaled one's by
// at least the checkpoint file the job writes.
func TestJournaledEstimatePricesCheckpoint(t *testing.T) {
	layoutDir, _ := buildLayoutDir(t, 10, 3, 4)
	jdir := t.TempDir()
	cfg := durableConfig(layoutDir, jdir, false)
	cfg.CheckpointKeep = 2 // keep the finished jobs' files to measure
	plainCfg := cfg
	plainCfg.JournalDir = ""
	var servers []*Server
	for _, c := range []Config{cfg, plainCfg} {
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range servers {
			s.Close(ctx)
		}
	}()
	s, plain := servers[0], servers[1]
	for _, alg := range []string{"pr", "prd"} {
		req := jobs.Request{Graph: "g", Algorithm: alg}
		j, err := s.Scheduler().Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j, jobs.Done)
		fi, err := os.Stat(checkpoint.Path(filepath.Join(jdir, "checkpoints", j.ID())))
		if err != nil {
			t.Fatal(err)
		}
		if price := s.estimateBytes(req) - plain.estimateBytes(req); price < fi.Size() {
			t.Errorf("%s: a journaled job is priced %d bytes above an unjournaled one, its checkpoint image is %d", alg, price, fi.Size())
		}
	}
}
