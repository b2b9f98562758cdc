// Package loadgen is the closed-loop load generator behind `graphsd
// bench-serve` and the serve-SLO tests: per-tenant worker pools drive
// mixed algorithm-job and edge-mutation traffic against a live server over
// HTTP, and the run distils into a Report with p50/p99 submit-to-done
// latency, jobs/sec, and per-tenant fairness shares.
//
// Closed-loop means every worker keeps a fixed number of operations in
// flight (Burst, default one): submit, poll to terminal, record, repeat.
// Offered load therefore adapts to what the server sustains — the
// generator measures capacity and fairness rather than timeout behaviour
// under an arbitrary open-loop arrival rate. A tenant that wants to flood
// runs more workers or a deeper Burst; a deep Burst floods the admission
// queue without adding client goroutines, which keeps the generator
// honest on small machines where client CPU competes with the server.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Tenant is one credentialed traffic source.
type Tenant struct {
	// Name labels the tenant in the report; it should match the server's
	// tenant name for that Token.
	Name string
	// Token is sent as the Authorization bearer token. Empty sends no
	// header (single-tenant servers).
	Token string
	// Workers is this tenant's closed-loop worker count; 0 falls back to
	// Options.Workers.
	Workers int
	// Burst is how many jobs each worker keeps in flight at once (default
	// 1). A flooding tenant uses a deep Burst: it piles backlog into the
	// server's admission queue — which is what fair-share dequeue must
	// absorb — without the extra polling goroutines of more Workers.
	Burst int
}

// Options configures a load-generation run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Tenants are the traffic sources. Empty runs one anonymous tenant.
	Tenants []Tenant
	// Workers is the per-tenant closed-loop worker count (default 2).
	Workers int
	// Duration is how long workers keep submitting (default 5s). In-flight
	// operations run to completion past the deadline so every submitted
	// job's latency is observed.
	Duration time.Duration
	// Graph and Algorithms shape the job mix; workers cycle through the
	// algorithm list with per-worker random sources in [0, NumVertices).
	Graph      string
	Algorithms []string
	// NumVertices bounds random job sources and mutation endpoints; 0
	// pins every source to vertex 0.
	NumVertices int
	// MaxIterations caps each submitted job (keeps bench jobs short).
	MaxIterations int
	// MutateEvery makes every Nth operation an edge-mutation batch of
	// MutateBatch inserts instead of a job (0: jobs only). The target
	// graph must be served mutable.
	MutateEvery int
	MutateBatch int
	// PollInterval is the status-poll period while a job runs (default
	// 5ms — bench jobs are short).
	PollInterval time.Duration
	// Seed makes worker randomness reproducible.
	Seed int64
}

// TenantReport is one tenant's slice of a run.
type TenantReport struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	Burst   int     `json:"burst,omitempty"`
	Jobs    int64   `json:"jobs_done"`
	JobsPS  float64 `json:"jobs_per_sec"`
	// Share is this tenant's fraction of all completed jobs — the
	// fairness figure the SLO gate reads.
	Share    float64 `json:"share"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	Mutates  int64   `json:"mutation_batches"`
	Rejected int64   `json:"rejected_429"`
	Errors   int64   `json:"errors"`
}

// Report is the whole run: the BENCH_serve.json schema.
type Report struct {
	DurationS float64 `json:"duration_s"`
	Jobs      int64   `json:"jobs_done"`
	JobsPS    float64 `json:"jobs_per_sec"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	Mutates   int64   `json:"mutation_batches"`
	Rejected  int64   `json:"rejected_429"`
	Errors    int64   `json:"errors"`
	// MinShare is the smallest per-tenant share of completed jobs; with
	// k equal-weight tenants a perfectly fair server scores 1/k, and the
	// SLO gate asserts a floor under it.
	MinShare float64        `json:"min_share"`
	Tenants  []TenantReport `json:"tenants"`
}

// worker-local tallies, merged under one mutex at the end of each worker.
type tally struct {
	jobs     int64
	mutates  int64
	rejected int64
	errors   int64
	lat      []float64 // submit→done, milliseconds
}

// Run drives the configured load until Options.Duration elapses (or ctx
// cancels, whichever first) and returns the distilled report.
func Run(ctx context.Context, opts Options) (Report, error) {
	if opts.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: BaseURL is required")
	}
	if opts.Graph == "" {
		return Report{}, fmt.Errorf("loadgen: Graph is required")
	}
	if len(opts.Algorithms) == 0 {
		opts.Algorithms = []string{"pr"}
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 5 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	tenants := opts.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default"}}
	}

	var (
		mu      sync.Mutex
		tallies = make(map[string]*tally, len(tenants))
		wg      sync.WaitGroup
	)
	for _, t := range tenants {
		tallies[t.Name] = &tally{}
	}
	start := time.Now()
	deadline := start.Add(opts.Duration)
	widx := 0
	for _, t := range tenants {
		workers := t.Workers
		if workers <= 0 {
			workers = opts.Workers
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			widx++
			go func(t Tenant, seed int64) {
				defer wg.Done()
				local := runWorker(ctx, client, opts, t, seed, deadline)
				mu.Lock()
				agg := tallies[t.Name]
				agg.jobs += local.jobs
				agg.mutates += local.mutates
				agg.rejected += local.rejected
				agg.errors += local.errors
				agg.lat = append(agg.lat, local.lat...)
				mu.Unlock()
			}(t, opts.Seed+int64(widx))
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	return buildReport(tenants, tallies, opts.Workers, elapsed), nil
}

// buildReport distils the merged per-tenant tallies of a run of elapsed
// seconds: totals, rates, latency percentiles, and each tenant's share of
// the completed jobs. defaultWorkers stands in for a tenant that did not set
// its own worker count.
func buildReport(tenants []Tenant, tallies map[string]*tally, defaultWorkers int, elapsed float64) Report {
	rep := Report{DurationS: elapsed, MinShare: 1}
	var allLat []float64
	for _, t := range tenants {
		agg := tallies[t.Name]
		tr := TenantReport{
			Name: t.Name, Workers: t.Workers, Burst: t.Burst,
			Jobs: agg.jobs, Mutates: agg.mutates,
			Rejected: agg.rejected, Errors: agg.errors,
			JobsPS: float64(agg.jobs) / elapsed,
			P50ms:  percentile(agg.lat, 50), P99ms: percentile(agg.lat, 99),
		}
		if tr.Workers <= 0 {
			tr.Workers = defaultWorkers
		}
		rep.Tenants = append(rep.Tenants, tr)
		rep.Jobs += agg.jobs
		rep.Mutates += agg.mutates
		rep.Rejected += agg.rejected
		rep.Errors += agg.errors
		allLat = append(allLat, agg.lat...)
	}
	rep.JobsPS = float64(rep.Jobs) / elapsed
	rep.P50ms = percentile(allLat, 50)
	rep.P99ms = percentile(allLat, 99)
	for i := range rep.Tenants {
		if rep.Jobs > 0 {
			rep.Tenants[i].Share = float64(rep.Tenants[i].Jobs) / float64(rep.Jobs)
		}
		if rep.Tenants[i].Share < rep.MinShare {
			rep.MinShare = rep.Tenants[i].Share
		}
	}
	return rep
}

// runWorker is one closed-loop worker: it keeps Burst operations in
// flight until the deadline passes.
func runWorker(ctx context.Context, client *http.Client, opts Options, t Tenant, seed int64, deadline time.Time) *tally {
	rng := rand.New(rand.NewSource(seed))
	local := &tally{}
	burst := t.Burst
	if burst < 1 {
		burst = 1
	}
	for op := 0; time.Now().Before(deadline) && ctx.Err() == nil; op++ {
		if opts.MutateEvery > 0 && op%opts.MutateEvery == opts.MutateEvery-1 {
			doMutate(ctx, client, opts, t, rng, local)
			continue
		}
		doJobBurst(ctx, client, opts, t, rng, local, op, burst)
	}
	return local
}

func (t Tenant) auth(req *http.Request) {
	if t.Token != "" {
		req.Header.Set("Authorization", "Bearer "+t.Token)
	}
}

func source(opts Options, rng *rand.Rand) uint32 {
	if opts.NumVertices <= 0 {
		return 0
	}
	return uint32(rng.Intn(opts.NumVertices))
}

// doJobBurst submits up to burst algorithm jobs back-to-back, then polls
// each to a terminal state; a job's submit-to-done wall time is its
// recorded latency.
func doJobBurst(ctx context.Context, client *http.Client, opts Options, t Tenant, rng *rand.Rand, local *tally, op, burst int) {
	type inflight struct {
		id    string
		begin time.Time
	}
	var jobs []inflight
	for i := 0; i < burst; i++ {
		if id, begin, ok := submitJob(ctx, client, opts, t, rng, local, op+i); ok {
			jobs = append(jobs, inflight{id, begin})
		}
	}
	for _, j := range jobs {
		state, ok := pollJob(ctx, client, opts, t, j.id)
		if !ok {
			local.errors++
			continue
		}
		if state == "done" {
			local.jobs++
			local.lat = append(local.lat, float64(time.Since(j.begin).Microseconds())/1000)
		} else {
			local.errors++
		}
	}
}

// submitJob posts one job; false means rejected or errored (tallied).
func submitJob(ctx context.Context, client *http.Client, opts Options, t Tenant, rng *rand.Rand, local *tally, op int) (string, time.Time, bool) {
	body, _ := json.Marshal(map[string]any{
		"graph":          opts.Graph,
		"algorithm":      opts.Algorithms[op%len(opts.Algorithms)],
		"source":         source(opts, rng),
		"max_iterations": opts.MaxIterations,
	})
	begin := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		local.errors++
		return "", begin, false
	}
	req.Header.Set("Content-Type", "application/json")
	t.auth(req)
	resp, err := client.Do(req)
	if err != nil {
		local.errors++
		return "", begin, false
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		local.rejected++
		// Closed loop: back off a poll interval instead of hammering the
		// full queue.
		sleepCtx(ctx, opts.PollInterval)
		return "", begin, false
	case resp.StatusCode != http.StatusAccepted || err != nil || sub.ID == "":
		local.errors++
		sleepCtx(ctx, opts.PollInterval)
		return "", begin, false
	}
	return sub.ID, begin, true
}

// pollJob polls one job to a terminal state. It intentionally ignores the
// run deadline: a submitted job's completion must be observed or its
// latency (and a fairness datum) would be silently dropped.
func pollJob(ctx context.Context, client *http.Client, opts Options, t Tenant, id string) (string, bool) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, opts.BaseURL+"/v1/jobs/"+id, nil)
		if err != nil {
			return "", false
		}
		t.auth(req)
		resp, err := client.Do(req)
		if err != nil {
			return "", false
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return "", false
		}
		switch st.State {
		case "done", "failed", "cancelled", "expired":
			return st.State, true
		}
		if !sleepCtx(ctx, opts.PollInterval) {
			return "", false
		}
	}
}

// doMutate posts one batch of random edge inserts.
func doMutate(ctx context.Context, client *http.Client, opts Options, t Tenant, rng *rand.Rand, local *tally) {
	batch := opts.MutateBatch
	if batch <= 0 {
		batch = 16
	}
	muts := make([]map[string]any, batch)
	for i := range muts {
		muts[i] = map[string]any{
			"op": "insert", "src": source(opts, rng), "dst": source(opts, rng), "weight": 1,
		}
	}
	body, _ := json.Marshal(map[string]any{"mutations": muts})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		opts.BaseURL+"/v1/graphs/"+opts.Graph+"/edges", bytes.NewReader(body))
	if err != nil {
		local.errors++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t.auth(req)
	resp, err := client.Do(req)
	if err != nil {
		local.errors++
		return
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		local.mutates++
	case http.StatusTooManyRequests:
		local.rejected++
		sleepCtx(ctx, opts.PollInterval)
	default:
		local.errors++
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// percentile returns the pth percentile (nearest-rank) of v in place-safe
// fashion; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
