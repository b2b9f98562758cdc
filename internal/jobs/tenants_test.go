package jobs

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/core"
)

// gateRunner reports each job's tenant as it starts and holds the job until
// released (one token per job) or cancelled.
type gateRunner struct {
	started chan string
	release chan struct{}
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 64), release: make(chan struct{}, 64)}
}

func (g *gateRunner) run(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
	g.started <- req.Tenant
	select {
	case <-g.release:
		return &core.Result{Algorithm: req.Algorithm, Iterations: 1, Converged: true}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestFairShareWeightedOrder drives a single worker through backlogged
// queues of a weight-2 and a weight-1 tenant and asserts the stride
// scheduler's exact dequeue order — deterministic because ties break by
// name.
func TestFairShareWeightedOrder(t *testing.T) {
	r := newGateRunner()
	s := New(Config{
		Workers: 1, QueueDepth: 16,
		Tenants: []Tenant{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}, {Name: "warm", Weight: 1}},
		Run:     r.run,
	})
	defer s.Close(context.Background())

	// Occupy the worker so the a/b backlogs build before any dequeue.
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "warm"}); err != nil {
		t.Fatal(err)
	}
	if got := <-r.started; got != "warm" {
		t.Fatalf("first start %q, want warm", got)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a", Source: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "b", Source: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.release <- struct{}{} // let warm finish

	var order []string
	for i := 0; i < 9; i++ {
		got := <-r.started
		order = append(order, got)
		r.release <- struct{}{}
	}
	want := []string{"a", "b", "a", "a", "b", "a", "a", "b", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", order, want)
		}
	}
}

// TestFairShareFloodDoesNotStarve: a tenant with a deep backlog cannot push
// a trickling tenant's jobs behind its own — the quiet tenant's next job is
// dequeued no later than second.
func TestFairShareFloodDoesNotStarve(t *testing.T) {
	r := newGateRunner()
	s := New(Config{
		Workers: 1, QueueDepth: 64,
		Tenants: []Tenant{{Name: "flood"}, {Name: "quiet"}},
		Run:     r.run,
	})
	defer s.Close(context.Background())

	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "flood"}); err != nil {
		t.Fatal(err)
	}
	<-r.started // flood job running; now build the flood backlog
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "flood", Source: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "quiet"}); err != nil {
		t.Fatal(err)
	}
	r.release <- struct{}{}

	// Equal weights, flood.pass is ahead after its first dequeue: quiet
	// must go next, 20-deep backlog notwithstanding.
	if got := <-r.started; got != "quiet" {
		t.Fatalf("after flood backlog, next dequeue was %q, want quiet", got)
	}
	r.release <- struct{}{}
	for i := 0; i < 20; i++ {
		<-r.started
		r.release <- struct{}{}
	}
}

func TestTenantQueueQuota(t *testing.T) {
	r := newGateRunner()
	s := New(Config{
		Workers: 1, QueueDepth: 16,
		Tenants: []Tenant{{Name: "a", MaxQueued: 2}, {Name: "b"}},
		Run:     r.run,
	})
	defer s.Close(context.Background())

	// Occupy the worker with b so a's submissions stay queued.
	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "b"})
	<-r.started
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a", Source: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a", Source: 9}); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("err = %v, want ErrTenantQueueFull", err)
	}
	// The quota is per-tenant: b still admits.
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "b", Source: 9}); err != nil {
		t.Fatalf("b rejected: %v", err)
	}
	close(r.release)
}

func TestTenantRunningQuota(t *testing.T) {
	r := newGateRunner()
	s := New(Config{
		Workers: 2, QueueDepth: 16,
		Tenants: []Tenant{{Name: "a", MaxRunning: 1}, {Name: "b"}},
		Run:     r.run,
	})
	defer s.Close(context.Background())

	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a", Source: 0})
	if got := <-r.started; got != "a" {
		t.Fatalf("first start %q", got)
	}
	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a", Source: 1})
	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "b", Source: 0})
	// The free worker must take b's job: a is at its running cap.
	if got := <-r.started; got != "b" {
		t.Fatalf("second start %q, want b (a at MaxRunning)", got)
	}
	select {
	case got := <-r.started:
		t.Fatalf("third job started (%q) while a is at its running cap", got)
	case <-time.After(50 * time.Millisecond):
	}
	close(r.release) // everything drains; a's second job now runs
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c := s.Snapshot().Finished; c[Done] == 3 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("jobs did not drain: %v", s.Snapshot().Finished)
}

func TestUnknownTenantRejected(t *testing.T) {
	r := newGateRunner()
	close(r.release)
	s := New(Config{Workers: 1, QueueDepth: 4, Tenants: []Tenant{{Name: "a"}}, Run: r.run})
	defer s.Close(context.Background())

	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "nobody"}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	// The empty tenant resolves to DefaultTenant, which is unknown too when
	// an explicit tenant set is configured.
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr"}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("default-tenant err = %v, want ErrUnknownTenant", err)
	}
	if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
}

func TestTenantSnapshots(t *testing.T) {
	r := newGateRunner()
	s := New(Config{Workers: 1, QueueDepth: 8,
		Tenants: []Tenant{{Name: "a", Weight: 3}, {Name: "b"}}, Run: r.run})
	defer s.Close(context.Background())

	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a"})
	<-r.started
	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "a", Source: 1})
	s.Submit(Request{Graph: "g", Algorithm: "pr", Tenant: "b"})

	snaps := s.Snapshot().Tenants
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "b" {
		t.Fatalf("snapshots: %+v", snaps)
	}
	if snaps[0].Weight != 3 || snaps[0].Running != 1 || snaps[0].Queued != 1 || snaps[0].Submitted != 2 {
		t.Fatalf("tenant a: %+v", snaps[0])
	}
	if snaps[1].Queued != 1 || snaps[1].Submitted != 1 {
		t.Fatalf("tenant b: %+v", snaps[1])
	}
	close(r.release)
}

// drainDone waits until n jobs are Done.
func drainDone(t *testing.T, s *Scheduler, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c := s.Snapshot().Finished; c[Done] >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only %v done, want %d", s.Snapshot().Finished, n)
}

// TestRetentionEvictsTerminalJobs: the leak regression — a bounded scheduler
// drops the oldest finished jobs (payloads included) while counters stay
// monotonic.
func TestRetentionEvictsTerminalJobs(t *testing.T) {
	run := func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
		return &core.Result{Iterations: 1, Converged: true, Outputs: make([]float64, 1024)}, nil
	}
	s := New(Config{Workers: 1, QueueDepth: 8, RetainJobs: 2, Run: run})
	defer s.Close(context.Background())

	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Source: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
		drainDone(t, s, int64(i+1)) // sequential: finish order == submission order
	}

	if got := s.Snapshot().Retained; got != 2 {
		t.Fatalf("retained %d jobs, want 2", got)
	}
	if got := s.Snapshot().Evicted; got != 3 {
		t.Fatalf("evicted %d, want 3", got)
	}
	for _, id := range ids[:3] {
		if _, ok := s.Get(id); ok {
			t.Fatalf("evicted job %s still retrievable", id)
		}
	}
	for _, id := range ids[3:] {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("retained job %s missing", id)
		}
		if j.Result() == nil {
			t.Fatalf("retained job %s lost its result", id)
		}
	}
	// The monotonic counters survive eviction; the listing shrinks.
	if c := s.Snapshot().Finished; c[Done] != 5 {
		t.Fatalf("finished counts: %v", c)
	}
	if jobs := s.Jobs(); len(jobs) != 2 || jobs[0].ID() != ids[3] || jobs[1].ID() != ids[4] {
		t.Fatalf("listing after eviction: %v", jobs)
	}
}

// TestRetentionJournalConsistent: a restarted scheduler replays the journal
// and converges on the same retained set as the uninterrupted run — evicted
// jobs stay evicted, counters account for every journaled submit.
func TestRetentionJournalConsistent(t *testing.T) {
	dir := t.TempDir()
	run := func(ctx context.Context, req Request, info RunInfo) (*core.Result, error) {
		return &core.Result{Iterations: 1, Converged: true}, nil
	}
	open := func() (*Scheduler, *Journal) {
		jr, err := OpenJournal(filepath.Join(dir, "wal"), 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Workers: 1, QueueDepth: 8, RetainJobs: 2, Run: run, Journal: jr}), jr
	}

	s, jr := open()
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(Request{Graph: "g", Algorithm: "pr", Source: uint32(i)}); err != nil {
			t.Fatal(err)
		}
		drainDone(t, s, int64(i+1))
	}
	var retained []string
	for _, j := range s.Jobs() {
		retained = append(retained, j.ID())
	}
	if len(retained) != 2 {
		t.Fatalf("retained %v", retained)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	s2, jr2 := open()
	defer func() { s2.Close(context.Background()); jr2.Close() }()
	rec := s2.Snapshot().Recovery
	if rec.Lost != 0 || rec.Recovered != 5 || rec.Requeued != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	var after []string
	for _, j := range s2.Jobs() {
		after = append(after, j.ID())
	}
	if len(after) != 2 || after[0] != retained[0] || after[1] != retained[1] {
		t.Fatalf("retained set diverged across restart: %v vs %v", after, retained)
	}
	if got := s2.Snapshot().Evicted; got != 3 {
		t.Fatalf("replay evicted %d, want 3", got)
	}
}
