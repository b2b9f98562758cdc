package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEveryTerminalEdge walks one job down each way a job can end and checks
// the books after every one of them the same way: exactly one final record in
// the journal, the memory reservation back where it was before the job was
// admitted, the terminal-state counter and the retention ring one up, the
// tenant's Done count up only for Done, and the checkpoint directory pruned
// unless CheckpointKeep holds it. The job under test runs as tenant "t"; an
// edge that needs the only worker busy parks a "blocker" tenant's job on it.
func TestEveryTerminalEdge(t *testing.T) {
	type env struct {
		t       *testing.T
		s       *Scheduler
		r       *checkpointingRunner
		cfg     Config
		restart func() // Kill, reopen the journal, New: e.s is the second scheduler
	}
	submit := func(e *env, req Request) *Job {
		e.t.Helper()
		j, err := e.s.Submit(req)
		if err != nil {
			e.t.Fatal(err)
		}
		// A job that never runs never wrote a checkpoint; plant one so the
		// prune is observable on every edge.
		if err := os.MkdirAll(e.s.checkpointDir(j.ID()), 0o755); err != nil {
			e.t.Fatal(err)
		}
		return j
	}
	block := func(e *env) *Job {
		b := submit(e, Request{Graph: "g", Algorithm: "cc", Tenant: "blocker"})
		<-e.r.started
		return b
	}
	soon := func() *time.Time { dl := time.Now().Add(40 * time.Millisecond); return &dl }
	mine := Request{Graph: "g", Algorithm: "bfs", Tenant: "t"}

	edges := []struct {
		name    string
		final   State
		err     error
		blocker State // terminal state the blocker ends in; Queued: no blocker
		drive   func(e *env) *Job
	}{
		{"queued-cancel", Cancelled, context.Canceled, Done, func(e *env) *Job {
			block(e)
			j := submit(e, mine)
			if err := e.s.Cancel(j.ID()); err != nil {
				e.t.Fatal(err)
			}
			close(e.r.release)
			return j
		}},
		{"expired-at-dequeue", Expired, ErrDeadlineExpired, Done, func(e *env) *Job {
			block(e)
			req := mine
			req.Deadline = soon()
			j := submit(e, req)
			time.Sleep(time.Until(*req.Deadline) + 5*time.Millisecond)
			close(e.r.release)
			return j
		}},
		{"close-drain", Cancelled, ErrClosed, Cancelled, func(e *env) *Job {
			block(e)
			j := submit(e, mine)
			if err := e.s.Close(context.Background()); err != nil {
				e.t.Fatal(err)
			}
			return j
		}},
		{"done", Done, nil, Queued, func(e *env) *Job {
			j := submit(e, mine)
			<-e.r.started
			close(e.r.release)
			return j
		}},
		{"failed", Failed, errors.New("boom"), Queued, func(e *env) *Job {
			e.r.err = errors.New("boom")
			j := submit(e, mine)
			<-e.r.started
			close(e.r.release)
			return j
		}},
		{"cancelled-running", Cancelled, context.Canceled, Queued, func(e *env) *Job {
			j := submit(e, mine)
			<-e.r.started
			if err := e.s.Cancel(j.ID()); err != nil {
				e.t.Fatal(err)
			}
			return j
		}},
		{"deadline-while-running", Expired, ErrDeadlineExpired, Queued, func(e *env) *Job {
			req := mine
			req.Deadline = soon()
			j := submit(e, req)
			<-e.r.started
			return j
		}},
		{"expired-at-replay", Expired, ErrDeadlineExpired, Done, func(e *env) *Job {
			block(e)
			req := mine
			req.Deadline = soon()
			j := submit(e, req)
			time.Sleep(time.Until(*req.Deadline) + 5*time.Millisecond)
			e.restart()
			<-e.r.started // the blocker, re-queued and re-run
			close(e.r.release)
			j, ok := e.s.Get(j.ID())
			if !ok {
				e.t.Fatal("replay dropped the expired job")
			}
			return j
		}},
	}
	for _, edge := range edges {
		for _, keep := range []int{0, 2} {
			edge, keep := edge, keep
			name := edge.name
			if keep > 0 {
				name += "/kept"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				jr := openJournal(t, filepath.Join(dir, "wal"))
				e := &env{t: t, r: newCheckpointingRunner()}
				e.cfg = Config{
					Workers: 1, QueueDepth: 8, Run: e.r.run, Journal: jr,
					EstimateBytes:  func(Request) int64 { return 100 },
					CheckpointRoot: filepath.Join(dir, "ck"), CheckpointKeep: keep,
				}
				e.s = New(e.cfg)
				e.restart = func() {
					if err := e.s.Kill(context.Background()); err != nil {
						t.Fatal(err)
					}
					jr.Close()
					jr = openJournal(t, filepath.Join(dir, "wal"))
					e.r = newCheckpointingRunner()
					e.cfg.Run, e.cfg.Journal = e.r.run, jr
					e.s = New(e.cfg)
				}

				j := edge.drive(e)
				waitState(t, j, edge.final)
				want := [Expired + 1]int64{}
				want[edge.final]++
				jobs := int64(1)
				if edge.blocker != Queued {
					want[edge.blocker]++
					jobs++
				}
				deadline := time.Now().Add(5 * time.Second)
				for e.s.Snapshot().Finished != want && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond) // the blocker is still on its way out
				}
				snap := e.s.Snapshot()
				if snap.Finished != want {
					t.Fatalf("finished counters %v, want %v", snap.Finished, want)
				}
				if got, wantErr := j.Err(), edge.err; (got == nil) != (wantErr == nil) ||
					(got != nil && !errors.Is(got, wantErr) && got.Error() != wantErr.Error()) {
					t.Fatalf("terminal error %v, want %v", got, wantErr)
				}
				if snap.MemUsed != 0 {
					t.Fatalf("%d bytes still reserved with every job terminal", snap.MemUsed)
				}
				if wantExp := want[Expired]; snap.ExpiredDeadline != wantExp {
					t.Fatalf("expired-deadline counter %d, want %d", snap.ExpiredDeadline, wantExp)
				}
				for _, ten := range snap.Tenants {
					wantDone := int64(0)
					if (ten.Name == "t" && edge.final == Done) || (ten.Name == "blocker" && edge.blocker == Done) {
						wantDone = 1
					}
					if ten.Done != wantDone {
						t.Fatalf("tenant %s done = %d, want %d", ten.Name, ten.Done, wantDone)
					}
				}
				e.s.mu.Lock()
				ring := append([]string(nil), e.s.terminal...)
				e.s.mu.Unlock()
				inRing := 0
				for _, id := range ring {
					if id == j.ID() {
						inRing++
					}
				}
				if int64(len(ring)) != jobs || inRing != 1 {
					t.Fatalf("retention ring %v: want %d jobs, %s once", ring, jobs, j.ID())
				}
				_, err := os.Stat(e.s.checkpointDir(j.ID()))
				if kept := err == nil; kept != (keep > 0) {
					t.Fatalf("checkpoint dir kept = %v with CheckpointKeep %d (stat: %v)", kept, keep, err)
				}

				e.s.Close(context.Background())
				jr.Close()
				jr = openJournal(t, filepath.Join(dir, "wal"))
				defer jr.Close()
				finals := 0
				for _, rec := range jr.ConsumeReplay() {
					if rec.Type == RecFinal && rec.ID == j.ID() {
						finals++
						if rec.State != edge.final.String() {
							t.Fatalf("journaled final %q, want %q", rec.State, edge.final)
						}
					}
				}
				if finals != 1 {
					t.Fatalf("%d final records journaled for %s, want exactly 1", finals, j.ID())
				}
			})
		}
	}
}
