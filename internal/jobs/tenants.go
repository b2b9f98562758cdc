// Multi-tenant admission and weighted fair-share dequeue.
//
// Each tenant owns a FIFO of queued jobs; workers pull via stride
// scheduling: a tenant's virtual "pass" advances by strideScale/weight per
// dequeued job, and the runnable tenant with the smallest pass goes next.
// Over any window where two tenants both have work queued, their dequeue
// counts converge to the ratio of their weights — a tenant flooding the
// queue cannot starve one trickling jobs in, because flooding only deepens
// its own FIFO, never lowers its pass. A tenant idle for a while re-enters
// at the scheduler's current base pass instead of its stale one, so idling
// banks no credit.
//
// Quotas are enforced at two points: MaxQueued at admission (a tenant at
// its queued cap gets ErrTenantQueueFull before the global depth check),
// and MaxRunning at dequeue (a tenant at its running cap is simply not
// runnable; its jobs wait without blocking other tenants' workers).
package jobs

import "sort"

// DefaultTenant is the tenant jobs with an empty Request.Tenant are
// accounted to. A scheduler with no Config.Tenants runs every job under it,
// which preserves the single-tenant behaviour: one FIFO, no quotas.
const DefaultTenant = "default"

// Tenant configures one tenant's identity, fair-share weight, and quotas.
// The zero quota values mean "unbounded" (only the global limits apply).
type Tenant struct {
	// Name identifies the tenant in requests, job statuses, and metrics.
	Name string `json:"name"`
	// Token is the bearer token the HTTP server authenticates the tenant
	// by. The scheduler itself never reads it.
	Token string `json:"token,omitempty"`
	// Weight is the fair-share weight (default 1): with both tenants
	// backlogged, a weight-2 tenant dequeues twice as often as a weight-1.
	Weight int `json:"weight,omitempty"`
	// MaxQueued bounds the tenant's admitted-but-not-running jobs;
	// submissions beyond it get ErrTenantQueueFull.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning bounds the tenant's concurrently executing jobs. Jobs
	// beyond it stay queued while other tenants' jobs run.
	MaxRunning int `json:"max_running,omitempty"`
	// MutationBytesPerSec rate-limits the tenant's POST /v1/graphs/{g}/edges
	// traffic, enforced by the HTTP server's token bucket, not here.
	MutationBytesPerSec int64 `json:"mutation_bytes_per_sec,omitempty"`
}

// weight returns the effective fair-share weight.
func (t Tenant) weight() float64 {
	if t.Weight < 1 {
		return 1
	}
	return float64(t.Weight)
}

// strideScale is the stride-scheduling constant: a tenant's pass advances
// by strideScale/weight per dequeue. The value only needs to keep
// strideScale/weight well above float64 rounding for realistic weights.
const strideScale = 1 << 16

// tenantState is the scheduler-internal view of one tenant. Guarded by
// Scheduler.mu.
type tenantState struct {
	cfg   Tenant
	queue []*Job // FIFO of queued jobs (may include cancelled-while-queued)
	// queued and running are live counts; pass is the stride virtual time.
	queued  int
	running int
	pass    float64
	// submitted/done are monotonic totals for metrics and fairness audits.
	submitted int64
	done      int64
}

// tenantLocked returns the state for name (resolving "" to DefaultTenant),
// creating it on demand. New tenants join at the scheduler's base pass so
// they neither owe nor bank virtual time. Called with s.mu held.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	t := s.tenants[name]
	if t == nil {
		t = &tenantState{cfg: Tenant{Name: name}, pass: s.basePass}
		s.tenants[name] = t
		s.tnames = append(s.tnames, name)
		sort.Strings(s.tnames)
	}
	return t
}

// enqueueLocked appends j to its tenant's FIFO. A tenant whose queue was
// empty re-enters at the current base pass (no banked credit). Called with
// s.mu held.
func (s *Scheduler) enqueueLocked(t *tenantState, j *Job) {
	if len(t.queue) == 0 && t.pass < s.basePass {
		t.pass = s.basePass
	}
	t.queue = append(t.queue, j)
	t.queued++
	t.submitted++
	s.queuedLen++
}

// nextLocked picks the runnable tenant with the smallest pass (ties break
// toward the lexicographically smaller name, so scheduling is
// deterministic), pops its FIFO head, and charges the stride. It returns
// nil when no tenant is runnable. Called with s.mu held.
func (s *Scheduler) nextLocked() *Job {
	var best *tenantState
	for _, name := range s.tnames {
		t := s.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		if t.cfg.MaxRunning > 0 && t.running >= t.cfg.MaxRunning {
			continue
		}
		if best == nil || t.pass < best.pass {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	j := best.queue[0]
	best.queue[0] = nil // release the reference for GC
	best.queue = best.queue[1:]
	best.queued--
	best.running++
	s.queuedLen--
	s.basePass = best.pass
	best.pass += strideScale / best.cfg.weight()
	return j
}

// TenantSnapshot is one tenant's scheduler state inside a Snapshot, for
// /metrics and fairness audits.
type TenantSnapshot struct {
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted int64  `json:"submitted"`
	Done      int64  `json:"done"`
}

// tenantsLocked snapshots every tenant the scheduler has seen (configured or
// auto-created), sorted by name. Called with s.mu held.
func (s *Scheduler) tenantsLocked() []TenantSnapshot {
	out := make([]TenantSnapshot, 0, len(s.tnames))
	for _, name := range s.tnames {
		t := s.tenants[name]
		w := t.cfg.Weight
		if w < 1 {
			w = 1
		}
		out = append(out, TenantSnapshot{
			Name: name, Weight: w,
			Queued: t.queued, Running: t.running,
			Submitted: t.submitted, Done: t.done,
		})
	}
	return out
}
