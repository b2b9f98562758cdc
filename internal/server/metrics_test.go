package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/buffer"
	"github.com/graphsd/graphsd/internal/delta"
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/jobs"
	"github.com/graphsd/graphsd/internal/storage"
)

// TestMetricsSharedCacheOneSnapshot scrapes a compressed-cache server while
// its shared cache is under load. On a compressed cache every hit is a
// compressed hit, so the two counters are equal at any one instant; a scrape
// that read them at two instants would show them apart. Once the load stops,
// hits + misses must be those of a Stats() snapshot.
func TestMetricsSharedCacheOneSnapshot(t *testing.T) {
	dir, _ := buildLayoutDir(t, 8, 3, 2)
	s, _ := newTestServer(t, Config{Graphs: []GraphConfig{{
		Name: "g", Dir: dir, Profile: storage.HDD, CacheBytes: 1 << 20, SEM: true, Compressed: true,
	}}})
	shared, _, ok := s.Graph("g")
	if !ok || !shared.Compressed() {
		t.Fatal("no compressed shared cache")
	}
	scrape := func() (body string, sample func(metric string) int64) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics: HTTP %d", rec.Code)
		}
		body = rec.Body.String()
		return body, func(metric string) int64 {
			m := regexp.MustCompile(`(?m)^` + metric + `\{graph="g"\} (\d+)$`).FindStringSubmatch(body)
			if m == nil {
				t.Fatalf("metrics missing %s", metric)
			}
			n, _ := strconv.ParseInt(m[1], 10, 64)
			return n
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Keys no layout addresses, a few per worker: nearly all hits.
				k := buffer.Key{I: 1000 + w, J: n % 4}
				if _, _, err := shared.GetOrLoadBlock(k, func() (buffer.Block, int64, error) { return buffer.Block{Payload: []byte{1}}, 8, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for n := 0; n < 200; n++ {
		_, sample := scrape()
		hits, compressed := sample("graphsd_shared_cache_hits_total"), sample("graphsd_shared_cache_compressed_hits_total")
		if hits != compressed {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d mixes two moments: %d hits, %d compressed hits", n, hits, compressed)
		}
	}
	close(stop)
	wg.Wait()

	body, sample := scrape()
	st := shared.Stats()
	if got := sample("graphsd_shared_cache_hits_total") + sample("graphsd_shared_cache_misses_total"); got != st.Hits+st.Misses || st.Hits == 0 {
		t.Fatalf("scraped hits + misses = %d, snapshot %+v", got, st)
	}
	if got := sample("graphsd_shared_cache_used_bytes"); got != shared.Used() {
		t.Fatalf("used_bytes = %d, cache holds %d", got, shared.Used())
	}
	help := fmt.Sprintf("# HELP %s ", "graphsd_shared_cache_used_bytes")
	i := strings.Index(body, help)
	if i < 0 {
		t.Fatal("no help line for used_bytes")
	}
	if line, _, _ := strings.Cut(body[i+len(help):], "\n"); strings.HasPrefix(line, "Decoded bytes") || !strings.Contains(line, "encoded") {
		t.Fatalf("used_bytes help on a compressed cache: %q", line)
	}
}

// scrapeBody returns one /metrics exposition.
func scrapeBody(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", rec.Code)
	}
	return rec.Body.String()
}

// expositionCfg is a server showing every metric family: two tenants, a
// journal, one mutable graph and one read-only graph.
func expositionCfg(t *testing.T) Config {
	t.Helper()
	mdir, _ := buildLayoutDir(t, 8, 3, 2)
	rdir, _ := buildLayoutDir(t, 8, 4, 2)
	return Config{
		Graphs: []GraphConfig{
			{Name: "m", Dir: mdir, Profile: storage.SSD, Mutable: true, MemtableBytes: 1},
			{Name: "r", Dir: rdir, Profile: storage.HDD},
		},
		Tenants:    []jobs.Tenant{{Name: "alice", Token: "tok-alice"}, {Name: "bob", Token: "tok-bob", Weight: 2}},
		JournalDir: t.TempDir(),
		Workers:    2, QueueDepth: 64, RetainJobs: 32,
	}
}

// TestMetricsExpositionPinned pins what a scraper keys on: the ordered
// `# HELP` / `# TYPE` lines and, under each, the ordered series with their
// label sets (values stripped). testdata/metrics_exposition.golden was
// recorded from the hand-unrolled renderer this table replaced; a change to
// it is a change to the server's monitoring contract.
func TestMetricsExpositionPinned(t *testing.T) {
	s, _ := newTestServer(t, expositionCfg(t))
	for _, req := range []jobs.Request{
		{Graph: "m", Tenant: "alice", Algorithm: "pr", MaxIterations: 2},
		{Graph: "r", Tenant: "bob", Algorithm: "cc"},
	} {
		j, err := s.Scheduler().Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		for !j.State().Final() {
			time.Sleep(time.Millisecond)
		}
	}
	var got strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(scrapeBody(t, s), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		got.WriteString(line + "\n")
	}
	const golden = "testdata/metrics_exposition.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestMetricsScrapeIsOneInstant scrapes while jobs are submitted, run and
// cancelled and a mutable graph is written, sealed and compacted. Inside one
// scrape the numbers that are one fact under one lock must agree: the queue
// depth is the sum of the tenants' queues (Scheduler.mu), and a delta store
// has sealed layers exactly when it has sealed bytes (Store.mu). A renderer
// that takes each source's lock once per series shows them apart.
func TestMetricsScrapeIsOneInstant(t *testing.T) {
	s, _ := newTestServer(t, expositionCfg(t))
	store := s.Store("m")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, tenant := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(w int, tenant string) { // submit / cancel / complete
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				j, err := s.Scheduler().Submit(jobs.Request{Graph: "r", Tenant: tenant, Algorithm: "bfs", Source: uint32(n % 64), MaxIterations: 2})
				if err != nil { // queue full: let the workers catch up
					time.Sleep(time.Millisecond)
					continue
				}
				if n%3 == w {
					s.Scheduler().Cancel(j.ID())
				}
			}
		}(w, tenant)
	}
	wg.Add(1)
	go func() { // mutate (every batch seals) / compact
		defer wg.Done()
		for n := graph.VertexID(0); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := store.Apply([]delta.Mutation{{Op: delta.OpInsert, Src: n % 200, Dst: (n*7 + 1) % 200}}); err != nil {
				t.Error(err)
				return
			}
			if n%8 == 7 {
				if err := store.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	sample := regexp.MustCompile(`(?m)^(graphsd_\w+)(?:\{[^}]*\})? (\d+)$`)
	for n := 0; n < 200; n++ {
		sum := map[string]int64{}
		for _, m := range sample.FindAllStringSubmatch(scrapeBody(t, s), -1) {
			v, _ := strconv.ParseInt(m[2], 10, 64)
			sum[m[1]] += v
		}
		if q, d := sum["graphsd_tenant_jobs_queued"], sum["graphsd_queue_depth"]; q != d {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: tenants hold %d queued jobs, queue depth %d", n, q, d)
		}
		if l, b := sum["graphsd_delta_layers"], sum["graphsd_delta_bytes"]; (l == 0) != (b == 0) {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: %d delta layers holding %d bytes", n, l, b)
		}
	}
	close(stop)
	wg.Wait()
}
