// Multi-tenant HTTP surface: bearer-token authentication, per-tenant
// mutation rate limiting, and cross-tenant visibility rules.
//
// The scheduler owns fairness and job quotas (internal/jobs); this file
// owns everything that needs the HTTP request: mapping Authorization
// headers to tenant names, hiding one tenant's jobs from another, and
// metering POST /v1/graphs/{g}/edges bytes through a token bucket.
//
// Auth is on iff Config.Tenants is non-empty. With it off the server
// behaves exactly as before this layer existed: no Authorization header
// required, every job visible to every caller, no mutation metering.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/graphsd/graphsd/internal/jobs"
)

// LoadTenantsFile reads a tenants file for `graphsd serve -tenants`:
//
//	{"tenants": [
//	  {"name": "acme", "token": "s3cret", "weight": 2,
//	   "max_queued": 8, "max_running": 2, "mutation_bytes_per_sec": 1048576}
//	]}
//
// Every tenant needs a distinct non-empty name and token; the quota fields
// are optional (zero = unbounded, weight defaults to 1).
func LoadTenantsFile(path string) ([]jobs.Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	var file struct {
		Tenants []jobs.Tenant `json:"tenants"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	if err := ValidateTenants(file.Tenants); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return file.Tenants, nil
}

// ValidateTenants checks a tenant set for the invariants auth depends on:
// non-empty unique names, non-empty unique tokens, non-negative quotas.
func ValidateTenants(ts []jobs.Tenant) error {
	if len(ts) == 0 {
		return fmt.Errorf("no tenants defined")
	}
	names := make(map[string]bool, len(ts))
	tokens := make(map[string]bool, len(ts))
	for i, t := range ts {
		if t.Name == "" {
			return fmt.Errorf("tenant %d: empty name", i)
		}
		if t.Token == "" {
			return fmt.Errorf("tenant %q: empty token", t.Name)
		}
		if names[t.Name] {
			return fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		if tokens[t.Token] {
			return fmt.Errorf("tenant %q: token reused by an earlier tenant", t.Name)
		}
		names[t.Name], tokens[t.Token] = true, true
		if t.Weight < 0 || t.MaxQueued < 0 || t.MaxRunning < 0 || t.MutationBytesPerSec < 0 {
			return fmt.Errorf("tenant %q: negative quota", t.Name)
		}
	}
	return nil
}

type tenantCtxKey struct{}

// tenantFrom returns the authenticated tenant name, "" when auth is off.
func tenantFrom(r *http.Request) string {
	name, _ := r.Context().Value(tenantCtxKey{}).(string)
	return name
}

// withAuth wraps the mux: /healthz and /metrics stay open (probes and
// scrapers don't carry tenant credentials), everything else requires
// `Authorization: Bearer <token>` matching a configured tenant. The
// resolved tenant name rides the request context into the handlers.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || tok == "" {
			w.Header().Set("WWW-Authenticate", `Bearer realm="graphsd"`)
			writeError(w, http.StatusUnauthorized, "missing bearer token")
			return
		}
		name, ok := s.tokens[tok]
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="graphsd", error="invalid_token"`)
			writeError(w, http.StatusUnauthorized, "unknown bearer token")
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, name)))
	})
}

// visible reports whether the request's tenant may see job j. With auth
// off everything is visible; with it on, jobs belong to the tenant that
// submitted them and other tenants get the same 404 as a bogus ID — the
// job namespace itself leaks nothing across tenants.
func (s *Server) visible(r *http.Request, st jobs.Status) bool {
	if !s.authOn {
		return true
	}
	return st.Tenant == tenantFrom(r)
}

// rateBucket is a token bucket metering one tenant's mutation bytes.
// Capacity (burst) is one second of rate, so an idle tenant can always
// land one rate-sized batch immediately; a batch larger than the burst is
// admitted whenever the bucket is full and drives the balance negative,
// which delays the tenant's next batch proportionally instead of making
// oversized batches unsendable. Only metered tenants have one.
type rateBucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second, positive
	burst  float64
	tokens float64
	last   time.Time
}

func newRateBucket(bytesPerSec int64) *rateBucket {
	b := &rateBucket{rate: float64(bytesPerSec), burst: float64(bytesPerSec)}
	b.tokens = b.burst
	return b
}

// admit charges n bytes. When the bucket cannot cover them it charges
// nothing and returns the wait until it could.
func (b *rateBucket) admit(n int64, now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += b.rate * now.Sub(b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	need := float64(n)
	if need > b.burst {
		need = b.burst // oversized batch: admit at full bucket, go negative
	}
	if b.tokens >= need {
		b.tokens -= float64(n)
		return true, 0
	}
	wait := time.Duration((need - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // Retry-After is whole seconds; never advertise 0
	}
	return false, wait
}

// meterMutation charges a mutation batch to the request tenant's
// mutation-bytes budget before it is decoded, and returns the reader to
// decode the batch from. With auth off, or for an unmetered tenant, body
// passes straight through. A body of declared length is charged by that
// length, so an over-quota tenant costs the server one header parse. A
// chunked body declares none, so a metered tenant's is read first (within
// the handler's size cap) and charged by the bytes that arrived. When the
// budget cannot cover the batch, meterMutation writes the 429 with
// Retry-After and returns false.
func (s *Server) meterMutation(w http.ResponseWriter, r *http.Request, body io.Reader) (io.Reader, bool) {
	b := s.buckets[tenantFrom(r)]
	if b == nil || r.ContentLength == 0 {
		return body, true
	}
	n := r.ContentLength
	if n < 0 {
		data, err := io.ReadAll(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading request: %v", err)
			return nil, false
		}
		n, body = int64(len(data)), bytes.NewReader(data)
	}
	if ok, retry := b.admit(n, time.Now()); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, "tenant %q over its mutation rate; retry in %v", tenantFrom(r), retry.Round(time.Millisecond))
		return nil, false
	}
	return body, true
}
