package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer was
// created. Attributed marks a child whose duration was measured on a replay
// of the parent's work through the same public call and then laid out
// inside the parent's interval: the engine cannot be instrumented from
// outside, so its steps are timed one at a time next to the real call.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // -1 for a root
	Op         int    `json:"op"`     // spans of one op share its id
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Attributed bool   `json:"attributed,omitempty"`
}

// tracer collects spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// add records a span with explicit bounds.
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// attribute lays measured child durations out back to back from the
// parent's start, clipped to the parent's end.
func (t *tracer) attribute(parent int, names []string, durs []time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	p := t.spans[parent]
	at := p.StartNS
	for k, name := range names {
		end := at + int64(durs[k])
		if end > p.EndNS {
			end = p.EndNS
		}
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: p.Op, Name: name,
			StartNS: at, EndNS: end, Attributed: true})
		at = end
	}
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover. Children are assumed not to overlap each other
// (every recorder in this package is sequential within a parent); a child
// reaching outside its parent is clipped.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// sumByName totals duration and self time per span name.
func sumByName(spans []span) (total, self map[string]int64, count map[string]int) {
	st := selfTimes(spans)
	total, self, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	for i, s := range spans {
		total[s.Name] += s.EndNS - s.StartNS
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return total, self, count
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
