package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/core"
)

// blockingRunner returns a Runner that blocks until released (or ctx
// cancellation) and then returns the given result/error.
type blockingRunner struct {
	mu      sync.Mutex
	started chan string // job graph names, as they begin
	release chan struct{}
	err     error
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
	// Progress first: a test that has received from started reads it.
	info.OnIteration(core.IterStat{Index: 0, Active: 42})
	b.started <- req.Graph
	select {
	case <-b.release:
		b.mu.Lock()
		err := b.err
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return &core.Result{Algorithm: req.Algorithm, Iterations: 3, Converged: true}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.State(), want)
}

func TestJobLifecycleDone(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
	defer s.Close(context.Background())

	j, err := s.Submit(Request{Graph: "g", Algorithm: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started
	waitState(t, j, Running)
	st := j.Status()
	if st.Iterations != 1 || st.ActiveVert != 42 {
		t.Fatalf("progress not reported: %+v", st)
	}
	close(r.release)
	waitState(t, j, Done)
	res := j.Result()
	if res == nil || !res.Converged || res.Iterations != 3 {
		t.Fatalf("result: %+v", res)
	}
	if got := j.Status(); got.State != "done" || !got.Converged {
		t.Fatalf("status: %+v", got)
	}
	if c := s.Snapshot().Finished; c[Done] != 1 {
		t.Fatalf("finished counts: %v", c)
	}
}

func TestJobFailure(t *testing.T) {
	r := newBlockingRunner()
	r.err = errors.New("disk on fire")
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
	defer s.Close(context.Background())

	j, _ := s.Submit(Request{Graph: "g", Algorithm: "pr"})
	<-r.started
	close(r.release)
	waitState(t, j, Failed)
	if j.Result() != nil {
		t.Fatal("failed job returned a result")
	}
	if st := j.Status(); st.Error == "" {
		t.Fatalf("status missing error: %+v", st)
	}
}

func TestCancelRunning(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
	defer s.Close(context.Background())

	j, _ := s.Submit(Request{Graph: "g", Algorithm: "pr"})
	<-r.started
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Cancelled)
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("err = %v", j.Err())
	}
}

func TestCancelQueued(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
	defer s.Close(context.Background())

	running, _ := s.Submit(Request{Graph: "g1", Algorithm: "pr"})
	<-r.started
	queued, _ := s.Submit(Request{Graph: "g2", Algorithm: "pr"})
	if err := s.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, queued, Cancelled)
	close(r.release)
	waitState(t, running, Done)
	// The cancelled job must never have started.
	select {
	case g := <-r.started:
		t.Fatalf("cancelled queued job started: %s", g)
	default:
	}
}

func TestQueueFullAdmission(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 2, Run: r.run})
	defer func() { close(r.release); s.Close(context.Background()) }()

	// One running + two queued fills the system.
	s.Submit(Request{Graph: "a", Algorithm: "pr"})
	<-r.started
	s.Submit(Request{Graph: "b", Algorithm: "pr"})
	s.Submit(Request{Graph: "c", Algorithm: "pr"})
	_, err := s.Submit(Request{Graph: "d", Algorithm: "pr"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestMemBudgetAdmission(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{
		Workers: 1, QueueDepth: 8, MemBudget: 100,
		EstimateBytes: func(Request) int64 { return 60 },
		Run:           r.run,
	})
	j1, err := s.Submit(Request{Graph: "a", Algorithm: "pr"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Graph: "b", Algorithm: "pr"}); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	if snap := s.Snapshot(); snap.MemUsed != 60 || snap.MemBudget != 100 {
		t.Fatalf("reserved %d/%d", snap.MemUsed, snap.MemBudget)
	}
	// Finishing the first job releases its reservation.
	<-r.started
	close(r.release)
	waitState(t, j1, Done)
	if _, err := s.Submit(Request{Graph: "b", Algorithm: "pr"}); err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	s.Close(context.Background())
}

func TestDeterministicIDs(t *testing.T) {
	mk := func() []string {
		r := newBlockingRunner()
		close(r.release)
		s := New(Config{Workers: 1, QueueDepth: 8, Run: r.run})
		defer s.Close(context.Background())
		var ids []string
		for _, g := range []string{"g1", "g2"} {
			j, err := s.Submit(Request{Graph: g, Algorithm: "pr", Source: 3})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID())
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("IDs not deterministic: %v vs %v", a, b)
		}
	}
}

func TestJobTimeout(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run})
	defer s.Close(context.Background())

	j, _ := s.Submit(Request{Graph: "g", Algorithm: "pr", TimeoutMS: 20})
	<-r.started
	waitState(t, j, Cancelled)
	if !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err(j))
	}
}

func err(j *Job) error { return j.Err() }

func TestCloseCancelsEverything(t *testing.T) {
	r := newBlockingRunner()
	s := New(Config{Workers: 2, QueueDepth: 8, Run: r.run})

	var all []*Job
	for i := 0; i < 4; i++ {
		j, errSubmit := s.Submit(Request{Graph: "g", Algorithm: "pr"})
		if errSubmit != nil {
			t.Fatal(errSubmit)
		}
		all = append(all, j)
	}
	<-r.started
	<-r.started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if errClose := s.Close(ctx); errClose != nil {
		t.Fatalf("close: %v", errClose)
	}
	for _, j := range all {
		if st := j.State(); !st.Final() {
			t.Fatalf("job %s left in %s after close", j.ID(), st)
		}
	}
	if _, errSubmit := s.Submit(Request{Graph: "g", Algorithm: "pr"}); !errors.Is(errSubmit, ErrClosed) {
		t.Fatalf("submit after close: %v", errSubmit)
	}
	// Close is idempotent.
	if errClose := s.Close(context.Background()); errClose != nil {
		t.Fatalf("second close: %v", errClose)
	}
}

// TestSchedulerStress: many producers and cancellers against a small pool,
// run under -race in CI.
func TestSchedulerStress(t *testing.T) {
	run := func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
		for i := 0; i < 3; i++ {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
				info.OnIteration(core.IterStat{Index: i})
			}
		}
		return &core.Result{Iterations: 3, Converged: true}, nil
	}
	s := New(Config{Workers: 4, QueueDepth: 64, Run: run})
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j, err := s.Submit(Request{Graph: "g", Algorithm: "pr"})
				if err != nil {
					continue // queue full under pressure is fine
				}
				if i%3 == 0 {
					s.Cancel(j.ID())
				}
				j.Status()
			}
		}(p)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	counts := s.Snapshot().Finished
	var total int64
	for _, c := range counts {
		total += c
	}
	if used := s.Snapshot().MemUsed; used != 0 {
		t.Fatalf("memory still reserved after close: %d", used)
	}
	t.Logf("finished: %v (total %d)", counts, total)
}

// TestStatusFinished: Status reports when a job reached its terminal state —
// to the nanosecond, which run_ms does not give — for a job that ran and for
// the three kinds that finish without running: cancelled while queued,
// expired while queued, and recovered as terminal from the journal.
func TestStatusFinished(t *testing.T) {
	finishedAt := func(t *testing.T, j *Job) time.Time {
		t.Helper()
		st := j.Status()
		at, err := time.Parse(time.RFC3339Nano, st.Finished)
		if err != nil {
			t.Fatalf("state %s: finished = %q: %v", st.State, st.Finished, err)
		}
		submitted, _ := time.Parse(time.RFC3339Nano, st.Submitted)
		if at.Before(submitted) || at.After(time.Now()) {
			t.Fatalf("state %s: finished %v outside [submitted %v, now]", st.State, at, submitted)
		}
		return at
	}

	dir := t.TempDir()
	jr, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr})

	running, _ := s.Submit(Request{Graph: "g1", Algorithm: "pr"})
	<-r.started
	if st := running.Status(); st.Finished != "" {
		t.Fatalf("running job reports finished = %q", st.Finished)
	}
	cancelled, _ := s.Submit(Request{Graph: "g2", Algorithm: "pr"})
	if st := cancelled.Status(); st.Finished != "" {
		t.Fatalf("queued job reports finished = %q", st.Finished)
	}
	dl := time.Now().Add(10 * time.Millisecond)
	expired, _ := s.Submit(Request{Graph: "g3", Algorithm: "pr", Deadline: &dl})
	if err := s.Cancel(cancelled.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, cancelled, Cancelled)
	finishedAt(t, cancelled)

	time.Sleep(20 * time.Millisecond) // past the queued job's deadline
	close(r.release)
	waitState(t, running, Done)
	ranUntil := finishedAt(t, running)
	waitState(t, expired, Expired)
	finishedAt(t, expired)

	s.Close(context.Background())
	jr.Close()

	// A restarted scheduler recovers all three as terminal, each with the
	// time its final record carried.
	jr2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueDepth: 4, Run: r.run, Journal: jr2})
	defer func() { s2.Close(context.Background()); jr2.Close() }()
	for _, id := range []string{running.ID(), cancelled.ID(), expired.ID()} {
		j, ok := s2.Get(id)
		if !ok || !j.Recovered() || !j.State().Final() {
			t.Fatalf("job %s after restart: found %v, state %v", id, ok, j.State())
		}
		finishedAt(t, j)
	}
	// The final record is stamped as it is appended, just after the job's own
	// finish time is taken.
	if j, _ := s2.Get(running.ID()); finishedAt(t, j).Sub(ranUntil).Abs() > time.Second {
		t.Fatalf("recovered done job finished at %v, ran until %v", finishedAt(t, j), ranUntil)
	}
}
