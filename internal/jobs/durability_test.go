package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/storage"
)

// checkpointingRunner simulates an engine that persists a checkpoint: each
// run drops a marker file in the job's checkpoint directory before blocking
// on release/ctx, and records the RunInfo it was handed.
type checkpointingRunner struct {
	mu      sync.Mutex
	infos   []RunInfo
	started chan string
	release chan struct{}
	instant string // algorithm that completes without blocking on release
	err     error  // returned on release when set
}

func newCheckpointingRunner() *checkpointingRunner {
	return &checkpointingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (c *checkpointingRunner) run(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
	c.mu.Lock()
	c.infos = append(c.infos, info)
	c.mu.Unlock()
	if info.CheckpointDir != "" {
		os.MkdirAll(info.CheckpointDir, 0o755)
		os.WriteFile(filepath.Join(info.CheckpointDir, "state"), []byte(info.ID), 0o644)
	}
	c.started <- info.ID
	if req.Algorithm == c.instant {
		return &core.Result{Algorithm: req.Algorithm, Iterations: 3, Converged: true}, nil
	}
	select {
	case <-c.release:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return &core.Result{Algorithm: req.Algorithm, Iterations: 3, Converged: true}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *checkpointingRunner) runs() []RunInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RunInfo(nil), c.infos...)
}

// openJournal is a test helper that fails instead of returning an error.
func openJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRecoveryAfterKill is the core durability scenario: a scheduler with
// one finished, one running, and one queued job is killed mid-run; a second
// scheduler over the same journal must keep the finished job finished and
// re-run the other two, with zero jobs lost.
func TestRecoveryAfterKill(t *testing.T) {
	dir := t.TempDir()
	ckRoot := filepath.Join(dir, "ck")

	jr := openJournal(t, filepath.Join(dir, "wal"))
	r1 := newCheckpointingRunner()
	r1.instant = "pr" // the first job completes; later algorithms block
	s1 := New(Config{Workers: 1, QueueDepth: 8, Run: r1.run, Journal: jr, CheckpointRoot: ckRoot})

	done, err := s1.Submit(Request{Graph: "g", Algorithm: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	<-r1.started
	waitState(t, done, Done)

	running, _ := s1.Submit(Request{Graph: "g", Algorithm: "cc"})
	<-r1.started
	queued, _ := s1.Submit(Request{Graph: "g", Algorithm: "bfs"})

	killCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Kill(killCtx); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	// The kill must freeze state: no final record for the running/queued
	// jobs, and the running job's checkpoint dir is intact.
	if !checkpointDirExists(filepath.Join(ckRoot, running.ID())) {
		t.Fatal("kill pruned the running job's checkpoint")
	}

	jr2 := openJournal(t, filepath.Join(dir, "wal"))
	r3 := newCheckpointingRunner()
	close(r3.release)
	s2 := New(Config{Workers: 1, QueueDepth: 8, Run: r3.run, Journal: jr2, CheckpointRoot: ckRoot})
	defer func() { s2.Close(context.Background()); jr2.Close() }()

	rec := s2.Snapshot().Recovery
	if rec.Recovered != 1 || rec.Requeued != 2 || rec.Lost != 0 {
		t.Fatalf("recovery = %+v, want recovered=1 requeued=2 lost=0", rec)
	}
	if rec.Resumable != 1 {
		t.Fatalf("resumable = %d, want 1 (the mid-run job had a checkpoint)", rec.Resumable)
	}

	// The finished job is still finished — and flagged recovered.
	jd, ok := s2.Get(done.ID())
	if !ok || jd.State() != Done || !jd.Recovered() {
		t.Fatalf("done job after restart: ok=%v state=%v", ok, jd.State())
	}
	if jd.Result() != nil {
		t.Fatal("recovered done job resurrected a result payload")
	}

	// Both unfinished jobs re-run to completion, in submission order.
	for _, id := range []string{running.ID(), queued.ID()} {
		j2, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		waitState(t, j2, Done)
		if !j2.Recovered() {
			t.Fatalf("job %s not marked recovered", id)
		}
	}
	runs := r3.runs()
	if len(runs) != 2 || runs[0].ID != running.ID() || runs[1].ID != queued.ID() {
		t.Fatalf("re-run order %v, want [%s %s]", runs, running.ID(), queued.ID())
	}
	// Recovered jobs run with Resume set so the engine restores any
	// checkpoint it finds.
	for _, ri := range runs {
		if !ri.Resume || ri.CheckpointDir == "" {
			t.Fatalf("recovered job ran without resume wiring: %+v", ri)
		}
	}
	// Job IDs stay deterministic across the restart: a new submission
	// continues the replayed sequence.
	j4, err := s2.Submit(Request{Graph: "g", Algorithm: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	if jobSeq(j4.ID()) != 4 {
		t.Fatalf("post-restart sequence = %d (%s), want 4", jobSeq(j4.ID()), j4.ID())
	}
}

// TestRecoveryTornFinal: the crash eats the final record (torn append), so
// the restarted scheduler re-runs the job — duplicate execution, never a
// lost job.
func TestRecoveryTornFinal(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, filepath.Join(dir, "wal"))
	r := newCheckpointingRunner()
	s1 := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr})

	j, err := s1.Submit(Request{Graph: "g", Algorithm: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	// Tear the very next append — the job's final record — while the
	// runner is still blocked, then let it finish.
	jr.SetFaultInjector(func(op, name string) error {
		return fmt.Errorf("chaos: %w", storage.ErrTornWrite)
	})
	close(r.release)
	waitState(t, j, Done) // journal failure is tolerated; job finishes in memory
	s1.Close(context.Background())
	jr.Close()

	jr2 := openJournal(t, filepath.Join(dir, "wal"))
	r2 := newCheckpointingRunner()
	close(r2.release)
	s2 := New(Config{Workers: 1, QueueDepth: 4, Run: r2.run, Journal: jr2})
	defer func() { s2.Close(context.Background()); jr2.Close() }()

	rec := s2.Snapshot().Recovery
	if rec.Requeued != 1 || rec.Recovered != 0 || rec.Lost != 0 {
		t.Fatalf("recovery = %+v, want the torn-final job requeued", rec)
	}
	j2, _ := s2.Get(j.ID())
	waitState(t, j2, Done)
}

// TestRecoveryDuplicateFinal: a journal holding two final records for one
// job (a retried append that landed twice) replays first-final-wins.
func TestRecoveryDuplicateFinal(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, filepath.Join(dir, "wal"))
	req := Request{Graph: "g", Algorithm: "pr"}
	id := jobID(1, req)
	appendAll(t, jr,
		Record{Type: RecSubmit, ID: id, Time: time.Now(), Seq: 1, Req: &req},
		Record{Type: RecFinal, ID: id, State: "done"},
		Record{Type: RecFinal, ID: id, State: "failed", Error: "late duplicate"},
	)
	jr.Close()

	jr2 := openJournal(t, filepath.Join(dir, "wal"))
	r := newCheckpointingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr2})
	defer func() { s.Close(context.Background()); jr2.Close() }()

	j, ok := s.Get(id)
	if !ok || j.State() != Done {
		t.Fatalf("duplicate final replay: ok=%v state=%v, want done (first final wins)", ok, j.State())
	}
	if j.Err() != nil {
		t.Fatalf("late duplicate's error leaked in: %v", j.Err())
	}
	rec := s.Snapshot().Recovery
	if rec.Recovered != 1 || rec.Requeued != 0 || rec.Lost != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
}

// TestDeadlineExpiry covers all three expiry sites: a running job's context
// is cancelled at the deadline, a queued job past its deadline is expired
// instead of run, and a journaled job whose deadline passed while the
// server was down is expired at replay.
func TestDeadlineExpiry(t *testing.T) {
	t.Run("running", func(t *testing.T) {
		r := newCheckpointingRunner()
		s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
		defer s.Close(context.Background())
		dl := time.Now().Add(30 * time.Millisecond)
		j, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Deadline: &dl})
		if err != nil {
			t.Fatal(err)
		}
		<-r.started
		waitState(t, j, Expired)
		if !errors.Is(j.Err(), ErrDeadlineExpired) {
			t.Fatalf("err = %v, want ErrDeadlineExpired", j.Err())
		}
		if s.Snapshot().ExpiredDeadline != 1 {
			t.Fatalf("expired counter = %d", s.Snapshot().ExpiredDeadline)
		}
	})

	t.Run("queued", func(t *testing.T) {
		r := newCheckpointingRunner()
		s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
		defer func() { close(r.release); s.Close(context.Background()) }()
		// Occupy the only worker, then queue a job whose deadline passes
		// while it waits.
		blocker, _ := s.Submit(Request{Graph: "g", Algorithm: "pr"})
		<-r.started
		dl := time.Now().Add(20 * time.Millisecond)
		j, _ := s.Submit(Request{Graph: "g", Algorithm: "cc", Deadline: &dl})
		time.Sleep(40 * time.Millisecond)
		r.release <- struct{}{} // let the blocker finish; worker dequeues j
		waitState(t, j, Expired)
		waitState(t, blocker, Done)
		// The expired job never reached the runner.
		for _, ri := range r.runs() {
			if ri.ID == j.ID() {
				t.Fatal("expired queued job was run")
			}
		}
	})

	t.Run("replay", func(t *testing.T) {
		dir := t.TempDir()
		jr := openJournal(t, filepath.Join(dir, "wal"))
		dl := time.Now().Add(30 * time.Millisecond)
		req := Request{Graph: "g", Algorithm: "pr", Deadline: &dl}
		appendAll(t, jr, Record{Type: RecSubmit, ID: jobID(1, req), Time: time.Now(), Seq: 1, Req: &req})
		jr.Close()
		time.Sleep(50 * time.Millisecond) // the "server down" window outlives the deadline

		jr2 := openJournal(t, filepath.Join(dir, "wal"))
		r := newCheckpointingRunner()
		s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr2})
		defer func() { s.Close(context.Background()); jr2.Close() }()
		j, ok := s.Get(jobID(1, req))
		if !ok || j.State() != Expired {
			t.Fatalf("replayed past-deadline job: ok=%v state=%v, want expired", ok, j.State())
		}
		rec := s.Snapshot().Recovery
		if rec.Expired != 1 || rec.Requeued != 0 || rec.Lost != 0 {
			t.Fatalf("recovery = %+v", rec)
		}
		// The expiry was journaled, so a third replay recovers it as
		// terminal without re-expiring.
		s.Close(context.Background())
		jr2.Close()
		jr3 := openJournal(t, filepath.Join(dir, "wal"))
		s3 := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr3})
		defer func() { s3.Close(context.Background()); jr3.Close() }()
		if rec := s3.Snapshot().Recovery; rec.Recovered != 1 || rec.Expired != 0 {
			t.Fatalf("second restart recovery = %+v, want the expiry already terminal", rec)
		}
	})
}

// TestTransientRetry: transient storage errors re-run the job (with resume
// wiring) up to Retries extra attempts; permanent errors never retry.
func TestTransientRetry(t *testing.T) {
	var mu sync.Mutex
	var attempts []int
	failures := 2
	run := func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
		mu.Lock()
		attempts = append(attempts, info.Attempt)
		n := len(attempts)
		mu.Unlock()
		if n <= failures {
			return nil, storage.Transient(errors.New("flaky read"))
		}
		return &core.Result{Iterations: 1, Converged: true}, nil
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Run: run, Retries: 3, RetryBackoff: time.Millisecond})
	defer s.Close(context.Background())

	j, err := s.Submit(Request{Graph: "g", Algorithm: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Done)
	mu.Lock()
	got := append([]int(nil), attempts...)
	mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("attempts = %v, want [1 2 3]", got)
	}
	if s.Snapshot().Retried != 2 {
		t.Fatalf("Retried() = %d, want 2", s.Snapshot().Retried)
	}
	if st := j.Status(); st.Attempt != 3 {
		t.Fatalf("status attempt = %d, want 3", st.Attempt)
	}

	// Exhausted retries surface the transient error as Failed.
	s2 := New(Config{Workers: 1, QueueDepth: 4, Retries: 1, RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
			return nil, storage.Transient(errors.New("always flaky"))
		}})
	defer s2.Close(context.Background())
	j2, _ := s2.Submit(Request{Graph: "g", Algorithm: "pr"})
	waitState(t, j2, Failed)
	if s2.Snapshot().Retried != 1 {
		t.Fatalf("exhausted Retried() = %d, want 1", s2.Snapshot().Retried)
	}

	// Permanent failures don't retry.
	calls := 0
	s3 := New(Config{Workers: 1, QueueDepth: 4, Retries: 3, RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
			calls++
			return nil, errors.New("permanent")
		}})
	defer s3.Close(context.Background())
	j3, _ := s3.Submit(Request{Graph: "g", Algorithm: "pr"})
	waitState(t, j3, Failed)
	if calls != 1 || s3.Snapshot().Retried != 0 {
		t.Fatalf("permanent failure ran %d times, retried %d", calls, s3.Snapshot().Retried)
	}
}

// TestDrainDeterministic: Close with a journal cancels every queued job
// deterministically and journals the cancellations — a restart recovers
// them as terminal, requeuing nothing, and submissions during the drain are
// shed with ErrClosed.
func TestDrainDeterministic(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, filepath.Join(dir, "wal"))
	r := newCheckpointingRunner()
	s := New(Config{Workers: 1, QueueDepth: 8, Run: r.run, Journal: jr})

	running, _ := s.Submit(Request{Graph: "g", Algorithm: "pr"})
	<-r.started
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Request{Graph: "g", Algorithm: "cc", Source: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	<-closed
	waitState(t, running, Cancelled) // ctx-cancelled mid-run
	for _, j := range queued {
		if st := j.State(); st != Cancelled {
			t.Fatalf("queued job %s drained to %s, want cancelled", j.ID(), st)
		}
		if !errors.Is(j.Err(), ErrClosed) {
			t.Fatalf("queued job err = %v", j.Err())
		}
	}
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during drain: %v", err)
	}
	if used := s.Snapshot().MemUsed; used != 0 {
		t.Fatalf("memory still reserved after drain: %d", used)
	}
	jr.Close()

	// Restart: everything is terminal, nothing requeues.
	jr2 := openJournal(t, filepath.Join(dir, "wal"))
	s2 := New(Config{Workers: 1, QueueDepth: 8, Run: r.run, Journal: jr2})
	defer func() { s2.Close(context.Background()); jr2.Close() }()
	rec := s2.Snapshot().Recovery
	if rec.Recovered != 5 || rec.Requeued != 0 || rec.Lost != 0 {
		t.Fatalf("post-drain recovery = %+v, want 5 recovered", rec)
	}
}

// TestSubmitJournalUnavailable: once the journal fails, submissions are shed
// with ErrUnavailable instead of accepted without durability.
func TestSubmitJournalUnavailable(t *testing.T) {
	dir := t.TempDir()
	jr := openJournal(t, filepath.Join(dir, "wal"))
	r := newCheckpointingRunner()
	close(r.release)
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr})
	defer func() { s.Close(context.Background()); jr.Close() }()

	boom := errors.New("disk gone")
	jr.SetFaultInjector(func(op, name string) error { return boom })
	// The failing submit reports the journal error...
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr"}); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("submit with failing journal: %v", err)
	}
	// ...and every submit after it is shed before touching the journal.
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submit after journal failure: %v", err)
	}
}

// TestCheckpointGC: a terminal job's checkpoint directory is pruned once its
// final record is journaled; CheckpointKeep retains the last N.
func TestCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	ckRoot := filepath.Join(dir, "ck")
	r := newCheckpointingRunner()
	close(r.release)
	s := New(Config{Workers: 1, QueueDepth: 8, Run: r.run, CheckpointRoot: ckRoot, CheckpointKeep: 2})
	defer s.Close(context.Background())

	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Source: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, Done)
		ids = append(ids, j.ID())
	}
	for i, id := range ids {
		exists := checkpointDirExists(filepath.Join(ckRoot, id))
		want := i >= 2 // only the newest CheckpointKeep=2 survive
		if exists != want {
			t.Fatalf("checkpoint dir %d (%s): exists=%v, want %v", i, id, exists, want)
		}
	}
}

// TestOrphanCheckpointPruning: replay removes checkpoint directories that
// belong to no journaled job and terminal leftovers beyond CheckpointKeep,
// while a requeued job's directory survives.
func TestOrphanCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	ckRoot := filepath.Join(dir, "ck")
	jr := openJournal(t, filepath.Join(dir, "wal"))
	req := Request{Graph: "g", Algorithm: "pr"}
	done, live := jobID(1, req), jobID(2, req)
	appendAll(t, jr,
		Record{Type: RecSubmit, ID: done, Time: time.Now(), Seq: 1, Req: &req},
		Record{Type: RecFinal, ID: done, State: "done"},
		Record{Type: RecSubmit, ID: live, Time: time.Now(), Seq: 2, Req: &req},
		Record{Type: RecStart, ID: live, Attempt: 1},
	)
	jr.Close()
	for _, id := range []string{done, live, "j99999-orphan"} {
		if err := os.MkdirAll(filepath.Join(ckRoot, id), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	jr2 := openJournal(t, filepath.Join(dir, "wal"))
	r := newCheckpointingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr2, CheckpointRoot: ckRoot})
	defer func() { close(r.release); s.Close(context.Background()); jr2.Close() }()

	if checkpointDirExists(filepath.Join(ckRoot, "j99999-orphan")) {
		t.Fatal("orphan checkpoint dir survived replay")
	}
	if checkpointDirExists(filepath.Join(ckRoot, done)) {
		t.Fatal("terminal job's checkpoint survived with CheckpointKeep=0")
	}
	if !checkpointDirExists(filepath.Join(ckRoot, live)) {
		t.Fatal("requeued job's checkpoint was pruned")
	}
	if rec := s.Snapshot().Recovery; rec.Resumable != 1 {
		t.Fatalf("resumable = %d, want 1", rec.Resumable)
	}
}

// TestRecoveryKeepTerminalCheckpoints: with CheckpointKeep set, replay
// retains the newest N terminal checkpoint directories.
func TestRecoveryKeepTerminalCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckRoot := filepath.Join(dir, "ck")
	jr := openJournal(t, filepath.Join(dir, "wal"))
	req := Request{Graph: "g", Algorithm: "pr"}
	for i := 1; i <= 3; i++ {
		id := jobID(int64(i), req)
		appendAll(t, jr,
			Record{Type: RecSubmit, ID: id, Time: time.Now(), Seq: int64(i), Req: &req},
			Record{Type: RecFinal, ID: id, State: "done"},
		)
		if err := os.MkdirAll(filepath.Join(ckRoot, id), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()

	jr2 := openJournal(t, filepath.Join(dir, "wal"))
	r := newCheckpointingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr2, CheckpointRoot: ckRoot, CheckpointKeep: 1})
	defer func() { close(r.release); s.Close(context.Background()); jr2.Close() }()

	for i := 1; i <= 3; i++ {
		id := jobID(int64(i), req)
		exists := checkpointDirExists(filepath.Join(ckRoot, id))
		if want := i == 3; exists != want { // newest survives
			t.Fatalf("terminal checkpoint %s: exists=%v, want %v", id, exists, want)
		}
	}
}

// waitAllFinal waits until every job the scheduler holds is terminal.
func waitAllFinal(t *testing.T, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, j := range s.Jobs() {
		for !j.State().Final() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID(), j.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// insideRoot reports whether dir lies strictly inside root.
func insideRoot(root, dir string) bool {
	return strings.HasPrefix(dir, root+string(filepath.Separator))
}

// TestReplayRejectsForeignJobID: a job's ID names its checkpoint directory,
// so replay trusts only the ID Submit derives from the record's sequence and
// request. A CRC-valid submit naming "../../victim", "..", the journal
// directory itself, an absolute path, or any ID but its own is skipped like a
// submit without a request — never handed to a runner as its checkpoint
// directory, never pruned when it finishes.
func TestReplayRejectsForeignJobID(t *testing.T) {
	req := Request{Graph: "g", Algorithm: "pr"}
	other := Request{Graph: "g", Algorithm: "cc"}
	for _, tc := range []struct {
		name string
		// forged returns the ID of the submit at sequence 1, given the
		// test's temp directory.
		forged func(dir string) string
	}{
		{"parent-escape", func(string) string { return "../../victim" }},
		{"journal-dir", func(string) string { return ".." }},
		{"absolute", func(dir string) string { return filepath.Join(dir, "victim") }},
		{"nested", func(string) string { return jobID(1, req) + "/../../../victim" }},
		{"other-seq", func(string) string { return jobID(2, req) }},
		{"other-request", func(string) string { return jobID(1, other) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jdir := filepath.Join(dir, "journal")
			root := filepath.Join(jdir, "checkpoints") // the layout `serve -journal` uses
			sentinel := filepath.Join(dir, "victim", "keep")
			if err := os.MkdirAll(filepath.Dir(sentinel), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(sentinel, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			forged, genuine := tc.forged(dir), jobID(3, req)
			jr := openJournal(t, jdir)
			appendAll(t, jr,
				Record{Type: RecSubmit, ID: forged, Time: time.Now(), Seq: 1, Req: &req},
				Record{Type: RecStart, ID: forged, Attempt: 1},
				Record{Type: RecSubmit, ID: genuine, Time: time.Now(), Seq: 3, Req: &req},
			)
			jr.Close()

			jr2 := openJournal(t, jdir)
			r := newCheckpointingRunner()
			close(r.release)
			s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr2, CheckpointRoot: root})
			rec := s.Snapshot().Recovery
			waitAllFinal(t, s)
			_, replayed := s.Get(forged)
			s.Close(context.Background())
			jr2.Close()

			if rec.Requeued != 1 || rec.Lost != 0 || replayed {
				t.Fatalf("recovery = %+v, forged %q replayed=%v; want only the genuine submit requeued", rec, forged, replayed)
			}
			runs := r.runs()
			if len(runs) != 1 || runs[0].ID != genuine {
				t.Fatalf("runs %+v, want the genuine job alone", runs)
			}
			for _, info := range runs {
				if !insideRoot(root, info.CheckpointDir) {
					t.Fatalf("job %q ran with checkpoint directory %s, outside %s", info.ID, info.CheckpointDir, root)
				}
			}
			if _, err := os.Stat(sentinel); err != nil {
				t.Fatalf("a directory beside the journal was pruned: %v", err)
			}
			if !checkpointDirExists(jdir) {
				t.Fatal("the journal directory was pruned")
			}
		})
	}
}

// TestRecoveryLostInvariantUnderChaos runs submit/kill/recover cycles with a
// crash point sweeping across every journal append and asserts the
// accounting invariant: no journaled submission is ever lost.
func TestRecoveryLostInvariantUnderChaos(t *testing.T) {
	for crashAt := int64(1); crashAt <= 8; crashAt++ {
		dir := t.TempDir()
		wal := filepath.Join(dir, "wal")
		jr := openJournal(t, wal)
		chaos := storage.NewChaos(storage.ChaosOptions{
			Seed:          crashAt,
			CrashAfterOps: crashAt,
			Match:         func(op, name string) bool { return op == "append" },
		})
		jr.SetFaultInjector(chaos.Injector())
		r := newCheckpointingRunner()
		close(r.release)
		s := New(Config{Workers: 1, QueueDepth: 16, Run: r.run, Journal: jr})

		accepted := 0
		for i := 0; i < 6; i++ {
			j, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Source: uint32(i)})
			if err != nil {
				continue // journal down: load shed, the client knows
			}
			accepted++
			waitState(t, j, Done)
		}
		killCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Kill(killCtx)
		cancel()
		jr.Close()

		jr2 := openJournal(t, wal)
		s2 := New(Config{Workers: 1, QueueDepth: 16, Run: r.run, Journal: jr2})
		rec := s2.Snapshot().Recovery
		if rec.Lost != 0 {
			t.Fatalf("crashAt=%d: %d jobs lost (recovery %+v)", crashAt, rec.Lost, rec)
		}
		// Every job the replay knows about reaches a terminal state.
		for _, j := range s2.Jobs() {
			waitState(t, j, Done)
		}
		if got := int(rec.Recovered + rec.Requeued); got > accepted {
			t.Fatalf("crashAt=%d: replay invented jobs: %d > %d accepted", crashAt, got, accepted)
		}
		s2.Close(context.Background())
		jr2.Close()
	}
}

// FuzzJournalReplay feeds arbitrary records through Journal.Append — one JSON
// payload per line of the input, up to 64 — and replays them into a
// scheduler under a CheckpointRoot. Whatever the journal holds, replay must
// not panic, must account for every submit it accepts (Lost == 0), must hand
// no runner a checkpoint directory outside the root, and must prune nothing
// beside it.
func FuzzJournalReplay(f *testing.F) {
	req := Request{Graph: "g", Algorithm: "pr"}
	id := jobID(1, req)
	lines := func(recs ...Record) []byte {
		var out [][]byte
		for _, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, b)
		}
		return bytes.Join(out, []byte("\n"))
	}
	f.Add(lines(
		Record{Type: RecSubmit, ID: id, Seq: 1, Req: &req},
		Record{Type: RecStart, ID: id, Attempt: 1},
		Record{Type: RecFinal, ID: id, State: "done"},
	))
	f.Add(lines(
		Record{Type: RecSubmit, ID: "../victim", Seq: 1, Req: &req},
		Record{Type: RecStart, ID: "../victim", Attempt: 1},
	))
	f.Add([]byte(`{"type":"submit","id":"` + id + `","seq":1,"req":null}`))
	f.Add(lines(Record{Type: RecSubmit, ID: "..", Seq: 1, Req: &req}))
	f.Add(lines(Record{Type: RecSubmit, ID: id + "/../../victim", Seq: 1, Req: &req}))
	f.Add(lines( // a well-formed ID under another sequence, then a duplicate
		Record{Type: RecSubmit, ID: jobID(2, req), Seq: 1, Req: &req},
		Record{Type: RecSubmit, ID: id, Seq: 1, Req: &req},
		Record{Type: RecSubmit, ID: id, Seq: 1, Req: &req},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		jdir := filepath.Join(dir, "journal")
		root := filepath.Join(dir, "checkpoints")
		victim := filepath.Join(dir, "victim")
		if err := os.MkdirAll(victim, 0o755); err != nil {
			t.Fatal(err)
		}
		jr := openJournal(t, jdir)
		for i, line := range bytes.Split(data, []byte("\n")) {
			if i == 64 {
				break
			}
			var rec Record
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			jr.Append(rec) // a record Append cannot encode is simply not journaled
		}
		jr.Close()

		jr2 := openJournal(t, jdir)
		var mu sync.Mutex
		var dirs []string
		s := New(Config{Workers: 1, QueueDepth: 4, Journal: jr2, CheckpointRoot: root,
			Run: func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
				mu.Lock()
				dirs = append(dirs, info.CheckpointDir)
				mu.Unlock()
				return &core.Result{Algorithm: req.Algorithm, Converged: true}, nil
			}})
		rec := s.Snapshot().Recovery
		waitAllFinal(t, s)
		s.Close(context.Background())
		jr2.Close()

		if rec.Lost != 0 {
			t.Fatalf("replay lost %d jobs: %+v", rec.Lost, rec)
		}
		for _, d := range dirs {
			if !insideRoot(root, d) {
				t.Fatalf("runner handed checkpoint directory %s, outside %s", d, root)
			}
		}
		if !checkpointDirExists(victim) {
			t.Fatal("replay pruned a directory beside the checkpoint root")
		}
	})
}
