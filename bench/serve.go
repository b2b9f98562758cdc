package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphsd/graphsd/internal/algorithms"
	"github.com/graphsd/graphsd/internal/core"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/partition"
	"github.com/graphsd/graphsd/internal/server"
	"github.com/graphsd/graphsd/internal/storage"
)

const (
	serveGraph   = "g"
	serveClients = 2
	pollInterval = 2 * time.Millisecond
	// hostWatchEvery is the pause between two background host-factor samples.
	hostWatchEvery = 100 * time.Millisecond
	// serveBlock is how many ops a client runs per block of a counted pass:
	// more than either client's cycle, so every kind of op occurs.
	serveBlock = 4
)

// serveEnv is a booted server over a freshly built layout.
type serveEnv struct {
	g       *graph.Graph
	dir     string // layout and journal live under it
	srv     *server.Server
	http    *http.Server
	served  chan struct{} // closed when the accept loop has returned
	base    string
	client  *http.Client
	sources []uint32
}

func setupServe(cfg config) (*serveEnv, error) {
	dir, err := cfg.scratch("serve_mixed")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dir: dir, served: make(chan struct{})}
	env.g = rmat(cfg.Scale.ServeScale, cfg.Scale.EdgeFactor, true, cfg.Seed)
	env.sources = topOutDegree(env.g, sourcePool)
	layoutDir := filepath.Join(dir, "layout")
	if _, err := buildLayout(layoutDir, env.g); err != nil {
		return env, err
	}
	env.srv, err = server.New(server.Config{
		Graphs: []server.GraphConfig{{Name: serveGraph, Dir: layoutDir, Profile: deviceProfile,
			Mutable: true, SEM: true, Compressed: true, Async: true}},
		// One worker: with two, each engine's scheduler calibrates on device
		// deltas that include the other job's traffic, and PageRank jobs flip
		// whole iterations to on-demand reads at random, which swings model_s
		// by half between identical runs. The second client's job queues.
		Workers: 1, QueueDepth: 64, JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		return env, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return env, err
	}
	env.base = "http://" + ln.Addr().String()
	env.http = &http.Server{Handler: env.srv.Handler()}
	go func() {
		defer close(env.served)
		env.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return env, nil
}

// close stops the listener and the server and waits for both.
func (env *serveEnv) close() error {
	if env == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if env.http != nil {
		err = env.http.Shutdown(ctx)
		<-env.served
		env.client.CloseIdleConnections()
		env.http = nil
	}
	if env.srv != nil {
		err = errors.Join(err, env.srv.Close(ctx))
		env.srv = nil
	}
	return err
}

func teardownServe(env *serveEnv) {
	if env != nil {
		env.close()
		os.RemoveAll(env.dir)
	}
}

// jobSample is one job as its client saw it.
type jobSample struct {
	client int
	alg    string
	source uint32
	id     string
	// A job pins its snapshot when it starts running, so it may have seen
	// any mutation prefix from the batches acknowledged before it was
	// submitted (verLo) to the batches sent before it was seen done (verHi).
	verLo, verHi int
	submit, wall time.Duration
	// host is the mean host factor sampled while the job was in flight.
	host         float64
	polls        int
	pollTime     time.Duration
	ttfb, stream time.Duration
	rejected     bool
	err          error
	values       []float64
	status       jobStatus
}

// jobStatus is the part of the server's status document the benchmark reads.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error"`
	Converged bool   `json:"converged"`
	Submitted string `json:"submitted"`
	Started   string `json:"started"`
	// RunMS is the only form the server reports run time in (it never fills
	// "finished"), so run times resolve to a millisecond.
	RunMS int64 `json:"run_ms"`
}

// queueWait is started - submitted, which the server prints to the nanosecond.
func (s jobStatus) queueWait() time.Duration {
	a, errA := time.Parse(time.RFC3339Nano, s.Submitted)
	b, errB := time.Parse(time.RFC3339Nano, s.Started)
	if errA != nil || errB != nil {
		return 0
	}
	return b.Sub(a)
}

// mutations is the shared record of client 0's batches.
type mutations struct {
	sent, acked atomic.Int64
	mu          sync.Mutex
	batches     [][]delta.Mutation // acknowledged, in order
	acks        []time.Duration
	failed      []error
}

// serveLoad drives the two clients over one window.
type serveLoad struct {
	env   *serveEnv
	watch *hostWatch
	muts  *mutations
	seqs  [serveClients]*opSequence
	tr    *tracer
	trMu  sync.Mutex // the tracer is single-writer; clients take turns
}

// interval is one timed HTTP exchange of a job, kept until the job ends so
// its spans can be filed under one root in a single turn at the tracer.
type interval struct {
	name       string
	start, end time.Time
}

// record files a finished op's exchanges as children of one root span.
func (ld *serveLoad) record(opID int, root string, ivs []interval) {
	if ld.tr == nil || len(ivs) == 0 {
		return
	}
	ld.trMu.Lock()
	defer ld.trMu.Unlock()
	parent := ld.tr.add(-1, opID, root, ivs[0].start, ivs[len(ivs)-1].end)
	for _, iv := range ivs {
		ld.tr.add(parent, opID, iv.name, iv.start, iv.end)
	}
}

// do sends one request and returns the status code and body.
func (ld *serveLoad) do(method, path string, body []byte) (code int, data []byte, headers time.Time, err error) {
	req, err := http.NewRequest(method, ld.env.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ld.env.client.Do(req)
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	headers = time.Now()
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, headers, err
}

// runJob submits one job, polls it to a terminal state and fetches its full
// result. opID keys the job's spans.
func (ld *serveLoad) runJob(client, opID int, op serveOp) jobSample {
	js := jobSample{client: client, alg: op.Alg, source: op.Source}
	req := map[string]any{"graph": serveGraph, "algorithm": op.Alg, "source": op.Source}
	if op.Alg == "pr" {
		req["max_iterations"] = prIterations
	}
	body, _ := json.Marshal(req)
	js.verLo = int(ld.muts.acked.Load())
	t0 := time.Now()
	code, data, _, err := ld.do(http.MethodPost, "/v1/jobs", body)
	t1 := time.Now()
	js.submit = t1.Sub(t0)
	ivs := []interval{{"http.submit", t0, t1}}
	defer func() { ld.record(opID, "job/"+op.Alg, ivs) }()
	switch {
	case err != nil:
		js.err = err
		return js
	case code == http.StatusTooManyRequests:
		js.rejected = true
		js.err = fmt.Errorf("submit refused: %s", data)
		return js
	case code != http.StatusAccepted:
		js.err = fmt.Errorf("submit: HTTP %d: %s", code, data)
		return js
	}
	if err := json.Unmarshal(data, &js.status); err != nil || js.status.ID == "" {
		js.err = fmt.Errorf("submit: bad status document: %v", err)
		return js
	}
	js.id = js.status.ID
	for {
		p0 := time.Now()
		code, data, _, err := ld.do(http.MethodGet, "/v1/jobs/"+js.id, nil)
		p1 := time.Now()
		js.polls++
		js.pollTime += p1.Sub(p0)
		ivs = append(ivs, interval{"http.poll", p0, p1})
		if err != nil || code != http.StatusOK {
			js.err = fmt.Errorf("poll: HTTP %d: %v", code, err)
			return js
		}
		if err := json.Unmarshal(data, &js.status); err != nil {
			js.err = fmt.Errorf("poll: %v", err)
			return js
		}
		if st := js.status.State; st == "done" || st == "failed" || st == "cancelled" || st == "expired" {
			js.wall = p1.Sub(t0)
			js.host = ld.watch.between(t0, p1)
			break
		}
		time.Sleep(pollInterval)
	}
	js.verHi = int(ld.muts.sent.Load())
	if js.status.State != "done" {
		js.err = fmt.Errorf("job ended %s: %s", js.status.State, js.status.Error)
		return js
	}
	r0 := time.Now()
	code, data, headers, err := ld.do(http.MethodGet, "/v1/jobs/"+js.id+"/result?full=1", nil)
	r1 := time.Now()
	js.ttfb, js.stream = headers.Sub(r0), r1.Sub(headers)
	ivs = append(ivs, interval{"http.result", r0, r1})
	if err != nil || code != http.StatusOK {
		js.err = fmt.Errorf("result: HTTP %d: %v", code, err)
		return js
	}
	js.values, js.err = parseFullResult(data)
	return js
}

// parseFullResult extracts the "full" array of a streamed result. Finite
// values round-trip exactly (the server prints the shortest exact decimal);
// non-finite ones arrive as JSON strings.
func parseFullResult(data []byte) ([]float64, error) {
	var doc struct {
		Full []json.RawMessage `json:"full"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("result: %v", err)
	}
	vals := make([]float64, len(doc.Full))
	for k, raw := range doc.Full {
		switch string(raw) {
		case `"Infinity"`:
			vals[k] = math.Inf(1)
		case `"-Infinity"`:
			vals[k] = math.Inf(-1)
		case `"NaN"`:
			vals[k] = math.NaN()
		default:
			v, err := strconv.ParseFloat(string(raw), 64)
			if err != nil {
				return nil, fmt.Errorf("result: value %d: %v", k, err)
			}
			vals[k] = v
		}
	}
	return vals, nil
}

// mutate posts one batch of insertions.
func (ld *serveLoad) mutate(opID int, batch []delta.Mutation) {
	type wire struct {
		Op     string  `json:"op"`
		Src    uint32  `json:"src"`
		Dst    uint32  `json:"dst"`
		Weight float32 `json:"weight"`
	}
	ms := make([]wire, len(batch))
	for k, m := range batch {
		ms[k] = wire{"insert", uint32(m.Src), uint32(m.Dst), m.Weight}
	}
	body, _ := json.Marshal(map[string]any{"mutations": ms})
	ld.muts.sent.Add(1)
	t0 := time.Now()
	code, data, _, err := ld.do(http.MethodPost, "/v1/graphs/"+serveGraph+"/edges", body)
	t1 := time.Now()
	ld.record(opID, "mutate", []interval{{"http.mutate", t0, t1}})
	ld.muts.mu.Lock()
	defer ld.muts.mu.Unlock()
	if err != nil || code != http.StatusOK {
		// A batch is all-or-nothing, so a refused one changed nothing; take
		// it back out of the count of batches a job may have seen.
		ld.muts.sent.Add(-1)
		ld.muts.failed = append(ld.muts.failed, fmt.Errorf("mutate: HTTP %d: %v %s", code, err, data))
		return
	}
	ld.muts.batches = append(ld.muts.batches, batch)
	ld.muts.acks = append(ld.muts.acks, t1.Sub(t0))
	ld.muts.acked.Add(1)
}

// window runs both clients closed-loop until end and returns their jobs.
// Ops in flight at the deadline run to completion inside the window.
func (ld *serveLoad) window(end passEnd, opBase int) (jobs []jobSample, elapsed time.Duration) {
	var wg sync.WaitGroup
	perClient := make([][]jobSample, serveClients)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; end.more(k, serveBlock); k++ {
				op := ld.seqs[c].next()
				opID := opBase + k*serveClients + c
				if op.Alg == "" {
					ld.mutate(opID, op.Batch)
				} else {
					perClient[c] = append(perClient[c], ld.runJob(c, opID, op))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, pc := range perClient {
		jobs = append(jobs, pc...)
	}
	return jobs, elapsed
}

// serveOracle checks jobs against core.RunReference over the base graph with
// a prefix of the acknowledged batches applied, one version at a time so only
// one mutated graph is alive.
func serveOracle(rep *workloadReport, g *graph.Graph, batches [][]delta.Mutation, jobs []jobSample) {
	matched := make([]bool, len(jobs))
	for ver := 0; ver <= len(batches); ver++ {
		if ver > 0 {
			g = delta.ApplyToGraph(g, batches[ver-1])
		}
		refs := map[string][]float64{}
		for k, j := range jobs {
			if j.err != nil || matched[k] || ver < j.verLo || ver > j.verHi {
				continue
			}
			key := j.alg
			if j.alg == "sssp" || j.alg == "bfs" {
				key += "/" + strconv.Itoa(int(j.source))
			}
			ref, ok := refs[key]
			if !ok {
				prog, err := algorithms.ByName(j.alg, graph.VertexID(j.source))
				if err != nil {
					continue
				}
				iters := 0
				if j.alg == "pr" {
					iters = prIterations
				}
				ref, _ = core.RunReference(g, prog, iters)
				refs[key] = ref
			}
			_, matched[k] = sameOutputs(j.values, ref, j.alg != "pr")
		}
	}
	for k, j := range jobs {
		rep.Attempted++
		switch {
		case j.err != nil:
			rep.fail("client %d %s: %v", j.client, j.alg, j.err)
		case j.alg != "pr" && !j.status.Converged:
			rep.fail("job %s (%s) did not converge", j.id, j.alg)
		case !matched[k]:
			rep.fail("job %s (%s from %d) matches no snapshot in versions %d..%d", j.id, j.alg, j.source, j.verLo, j.verHi)
		}
	}
}

func runServeMixed(cfg config) (*workloadReport, error) {
	// Booting the small served graph takes a seventh of a batch set-up, so
	// its cost scatters more from one to the next: repeat it more often.
	cfg.Setups *= 3
	env, setups, err := timedSetups(cfg, func() (*serveEnv, error) { return setupServe(cfg) }, teardownServe)
	defer teardownServe(env)
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{Name: "serve_mixed", EndToEnd: metricSet{}, PerLayer: metricSet{}}
	rep.Input = map[string]any{"inputs": 1, "vertices": env.g.NumVertices, "edges": env.g.NumEdges(),
		"clients": serveClients, "poll_interval_ms": pollInterval.Seconds() * 1e3, "mutation_batch": mutationBatch}
	// Jobs overlap, so the host factor is sampled beside them, not between
	// them: one probe every 100 ms, about a tenth of one CPU.
	ld := &serveLoad{env: env, muts: &mutations{}, watch: cfg.probe.watch(hostWatchEvery)}
	defer ld.watch.close()
	for c := range ld.seqs {
		ld.seqs[c] = newOpSequence(cfg.Seed, c, env.sources, env.g.NumVertices)
	}
	_, dev, _ := env.srv.Graph(serveGraph)

	// Untraced window.
	io0, heap0, jr0 := dev.Stats(), readHeap(), env.srv.Journal().Stats()
	windowStart := time.Now()
	jobs, window := ld.window(cfg.pass(cfg.Seconds), 0)
	windowHost := ld.watch.between(windowStart, time.Now())
	io, heap1, jr1 := dev.Stats().Sub(io0), readHeap(), env.srv.Journal().Stats()
	layersAtEnd := env.srv.Store(serveGraph).Stats().Layers
	acks := append([]time.Duration(nil), ld.muts.acks...)

	// Traced window on the same server, continuing both op sequences.
	var traced []jobSample
	if cfg.traced() {
		ld.tr = newTracer()
		traced, _ = ld.window(cfg.pass(cfg.TracedSeconds), len(jobs)+len(acks))
	}

	// After the windows: one job per algorithm must see every acknowledged
	// mutation.
	var finals []jobSample
	for k, alg := range []string{"pr", "bfs", "cc", "sssp"} {
		finals = append(finals, ld.runJob(0, -1-k, serveOp{Alg: alg, Source: env.sources[0]}))
		if f := &finals[k]; f.err == nil && f.verLo != f.verHi {
			f.err = fmt.Errorf("final job saw a mutation in flight")
		}
	}

	// Engine results are read in process: the HTTP API does not carry them.
	samples := resultsOf(env, jobs)
	tracedWall := make([]float64, 0, len(traced))
	for _, j := range traced {
		if j.err == nil {
			tracedWall = append(tracedWall, j.wall.Seconds()/j.host)
		}
	}
	var frontiers []int
	if len(samples) > 0 {
		for _, st := range samples[0].res.IterStats {
			frontiers = append(frontiers, st.Active)
		}
	}
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("serve_mixed: closing server: %w", err)
	}

	all := append(append(append([]jobSample(nil), jobs...), traced...), finals...)
	serveOracle(rep, env.g, ld.muts.batches, all)
	for _, err := range ld.muts.failed {
		rep.Attempted++
		rep.fail("%v", err)
	}
	rep.Attempted += len(ld.muts.batches)
	rep.Ops, rep.TracedOps = len(jobs)+len(acks), len(traced)

	// End-to-end times are scaled to a quiet host (see hostspeed.go), each
	// job's by the factor sampled while it was in flight; the per-layer
	// timings below stay as the clock read them.
	var walls, rawWalls, submits, waits, runs, ttfbs, streams []float64
	runsBy := map[string][]float64{}
	var polls int
	var pollTime time.Duration
	var rejected int
	for _, j := range jobs {
		if j.rejected {
			rejected++
		}
		if j.err != nil {
			continue
		}
		walls = append(walls, j.wall.Seconds()/j.host)
		rawWalls = append(rawWalls, j.wall.Seconds())
		submits = append(submits, j.submit.Seconds())
		ttfbs = append(ttfbs, j.ttfb.Seconds())
		streams = append(streams, j.stream.Seconds())
		waits = append(waits, j.status.queueWait().Seconds())
		run := float64(j.status.RunMS) / 1e3
		runs = append(runs, run)
		runsBy[j.alg] = append(runsBy[j.alg], run)
		polls += j.polls
		pollTime += j.pollTime
	}
	done := float64(len(walls))
	var compute float64
	for _, s := range samples {
		compute += s.res.ComputeTime.Seconds() / s.host
	}
	e := rep.EndToEnd
	e.set("setup_s", median(setups), len(setups))
	e.set("wall_s", median(walls), len(walls))
	e.set("model_s", ratio(io.TotalTime().Seconds()+compute, done), len(walls))
	e.set("device_bytes", ratio(float64(io.TotalBytes()), done), len(walls))
	e.set("throughput_medges_s", ratio(done*float64(env.g.NumEdges())/1e6, window.Seconds()/windowHost), len(walls))
	rep.WallTailPct, rep.WallTailS = tail(walls)

	p := rep.PerLayer
	ops := len(walls)
	perJob := func(v float64) float64 { return ratio(v, done) }
	p.set("storage.read_bytes", perJob(float64(io.ReadBytes())), ops)
	p.set("storage.read_ops", perJob(float64(io.Ops[storage.SeqRead]+io.Ops[storage.RandRead])), ops)
	p.set("storage.rand_read_ops", perJob(float64(io.Ops[storage.RandRead])), ops)
	p.set("storage.write_bytes", perJob(float64(io.WriteBytes())), ops)
	p.set("storage.sim_s", perJob(io.TotalTime().Seconds()), ops)
	p.set("storage.retries", perJob(float64(io.Retries)), ops)
	num := func(f func(opSample) float64) float64 {
		var vals []float64
		for _, s := range samples {
			vals = append(vals, f(s))
		}
		return mean(vals)
	}
	sec := func(f func(opSample) time.Duration) float64 {
		return num(func(s opSample) float64 { return f(s).Seconds() })
	}
	engineMetrics(p, len(samples), false, num, sec)
	// Process-wide, so these include the HTTP layer and the two clients.
	p.set("core.allocs_per_op", perJob(float64(heap1.objects-heap0.objects)), ops)
	p.set("core.alloc_bytes_per_op", perJob(float64(heap1.bytes-heap0.bytes)), ops)
	p.set("core.heap_peak_bytes", float64(heap1.live), 1)
	p.set("jobs.queue_wait_p50_s", median(waits), len(waits))
	p.set("jobs.run_p50_s", median(runs), len(runs))
	for _, alg := range []string{"pr", "bfs", "cc", "sssp"} {
		p.set("jobs.run_p50_s."+alg, median(runsBy[alg]), len(runsBy[alg]))
	}
	p.set("jobs.journal_records", perJob(float64(jr1.Records-jr0.Records)), ops)
	p.set("jobs.journal_bytes", perJob(float64(jr1.Bytes-jr0.Bytes)), ops)
	p.set("jobs.rejected", float64(rejected), 1)
	p.set("server.submit_p50_s", median(submits), len(submits))
	p.set("server.status_poll_us", ratio(pollTime.Seconds()*1e6, float64(polls)), polls)
	p.set("server.result_ttfb_s", median(ttfbs), len(ttfbs))
	p.set("server.result_stream_s", median(streams), len(streams))
	p.set("server.job_tail_pct", rep.WallTailPct, len(walls))
	p.set("server.job_tail_s", rep.WallTailS, len(walls))
	ackS := make([]float64, len(acks))
	for k, a := range acks {
		ackS[k] = a.Seconds()
	}
	p.set("server.mutate_ack_p50_s", median(ackS), len(ackS))
	_, ackTail := tail(ackS)
	p.set("server.mutate_ack_tail_s", ackTail, len(ackS))
	p.set("delta.layers_at_end", float64(layersAtEnd), 1)
	p.set("bench.ops", float64(rep.Ops), 1)
	p.set("bench.window_s", window.Seconds(), 1)
	p.set("bench.host_factor", windowHost, 1)
	p.set("bench.raw_wall_s", median(rawWalls), len(rawWalls))

	if ld.tr != nil {
		p.set("bench.trace_overhead_ratio", ratio(median(tracedWall), e["wall_s"].Value), len(tracedWall))
		if err := replayServe(cfg, ld, p, frontiers); err != nil {
			return nil, fmt.Errorf("serve_mixed: replay: %w", err)
		}
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		rep.TraceFile = cfg.tracePath(rep.Name)
		if err := ld.tr.write(rep.TraceFile, rep.Name, cfg.Seed); err != nil {
			return nil, err
		}
	}
	rep.FailedRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	return rep, nil
}

// resultsOf collects the engine results of the jobs that completed.
func resultsOf(env *serveEnv, jobs []jobSample) []opSample {
	var samples []opSample
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if job, ok := env.srv.Scheduler().Get(j.id); ok {
			if res := job.Result(); res != nil {
				samples = append(samples, opSample{res: res, host: j.host})
			}
		}
	}
	return samples
}

// replayServe times the layers under the closed server: the grid of the
// layout it left on disk, and scratch copies of its durability layers.
func replayServe(cfg config, ld *serveLoad, p metricSet, frontiers []int) error {
	env, tr := ld.env, ld.tr
	dev, err := storage.OpenDevice(filepath.Join(env.dir, "layout"), deviceProfile)
	if err != nil {
		return err
	}
	l, err := partition.Load(dev)
	if err != nil {
		return err
	}
	op := len(tr.spans)
	rc, err := replayGrid(tr, op, l, frontiers)
	if err != nil {
		return err
	}
	scratch, err := cfg.scratch("serve_replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	dur, err := replayDurability(tr, op+1, scratch, env.g, gridP, cfg.Seed)
	if err != nil {
		return err
	}
	layerMetricsFromTrace(p, tr, rc)
	p.set("delta.compact_bytes_rewritten", float64(dur.compactBytes), 1)
	p.set("delta.write_amp", dur.writeAmp, 1)
	return nil
}
