package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prom writes Prometheus text exposition format (version 0.0.4), the format
// scraped from the server's /metrics endpoint. It is a minimal writer, not
// a client library: callers emit a Header once per metric family and then
// one Val per labelled sample, in family order. The first write error is
// latched and later calls are no-ops — the client went away mid-scrape,
// nothing recoverable — so call sites stay unconditional.
type Prom struct {
	w   io.Writer
	err error
}

// NewProm returns a Prometheus text writer over w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

func (p *Prom) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the HELP and TYPE lines of a metric family. typ is
// "counter" or "gauge".
func (p *Prom) Header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Label is one name="value" pair. Labels render in the given order, so
// output is deterministic and scrape-diffable.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Val emits one sample line: name{labels} value. NaN and ±Inf render in
// Prometheus spelling.
func (p *Prom) Val(name string, value float64, labels ...Label) {
	p.sample(name, formatPromFloat(value), labels)
}

// Int is Val for integer-valued counters and gauges, avoiding float
// formatting artifacts on large counts.
func (p *Prom) Int(name string, value int64, labels ...Label) {
	p.sample(name, strconv.FormatInt(value, 10), labels)
}

func (p *Prom) sample(name, value string, labels []Label) {
	if p.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	_, p.err = io.WriteString(p.w, b.String())
}

func formatPromSpecial(v float64) (string, bool) {
	switch {
	case math.IsNaN(v):
		return "NaN", true
	case math.IsInf(v, 1):
		return "+Inf", true
	case math.IsInf(v, -1):
		return "-Inf", true
	}
	return "", false
}

func formatPromFloat(v float64) string {
	if s, ok := formatPromSpecial(v); ok {
		return s
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
