package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/graphsd/graphsd/internal/buffer"
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
