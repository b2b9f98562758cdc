package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPromOutput(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Header("graphsd_jobs_total", "counter", "Jobs by final state.")
	p.Int("graphsd_jobs_total", 3, L("state", "done"))
	p.Int("graphsd_jobs_total", 1, L("state", "failed"))
	p.Header("graphsd_cache_ratio", "gauge", "Hit ratio.")
	p.Val("graphsd_cache_ratio", 0.25, L("graph", "g1"))
	p.Val("graphsd_uptime_seconds", 12.5)
	if err := p.err; err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP graphsd_jobs_total Jobs by final state.
# TYPE graphsd_jobs_total counter
graphsd_jobs_total{state="done"} 3
graphsd_jobs_total{state="failed"} 1
# HELP graphsd_cache_ratio Hit ratio.
# TYPE graphsd_cache_ratio gauge
graphsd_cache_ratio{graph="g1"} 0.25
graphsd_uptime_seconds 12.5
`
	if got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromEscaping(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Header("m", "gauge", "line1\nline2 \\slash")
	p.Val("m", 1, L("path", `a"b\c`+"\n"))
	if err := p.err; err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, `line1\nline2 \\slash`) {
		t.Fatalf("help not escaped: %q", got)
	}
	if !strings.Contains(got, `path="a\"b\\c\n"`) {
		t.Fatalf("label not escaped: %q", got)
	}
}

func TestPromSpecialFloats(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Val("m", math.NaN())
	p.Val("m", math.Inf(1))
	p.Val("m", math.Inf(-1))
	got := b.String()
	for _, want := range []string{"m NaN\n", "m +Inf\n", "m -Inf\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in %q", want, got)
		}
	}
}

func TestPromErrLatched(t *testing.T) {
	p := NewProm(failingWriter{})
	p.Header("m", "gauge", "h")
	first := p.err
	if first == nil {
		t.Fatal("expected write error")
	}
	p.Val("m", 1)
	p.Int("m", 1)
	if p.err != first {
		t.Fatal("error not latched")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errBoom }

var errBoom = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }
