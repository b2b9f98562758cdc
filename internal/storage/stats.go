package storage

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// stats accumulates per-class counters with atomic updates so concurrent
// engine workers can share one Device.
type stats struct {
	bytes   [numClasses]atomic.Int64
	ops     [numClasses]atomic.Int64
	nanos   [numClasses]atomic.Int64
	retries atomic.Int64
}

func (s *stats) add(c Class, n int64, d time.Duration) {
	s.bytes[c].Add(n)
	s.ops[c].Add(1)
	s.nanos[c].Add(int64(d))
}

func (s *stats) addRetries(n int64) {
	if n != 0 {
		s.retries.Add(n)
	}
}

// Snapshot is a point-in-time copy of a device's I/O counters.
type Snapshot struct {
	Bytes [4]int64
	Ops   [4]int64
	Time  [4]time.Duration
	// Retries counts read attempts repeated after a transient fault under
	// the device's RetryPolicy; the corresponding backoff is folded into
	// the class Time of the retried operations.
	Retries int64
}

// TotalBytes returns the total bytes moved across all classes.
func (s Snapshot) TotalBytes() int64 {
	var t int64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// ReadBytes returns bytes moved by read classes.
func (s Snapshot) ReadBytes() int64 { return s.Bytes[SeqRead] + s.Bytes[RandRead] }

// WriteBytes returns bytes moved by write classes.
func (s Snapshot) WriteBytes() int64 { return s.Bytes[SeqWrite] + s.Bytes[RandWrite] }

// TotalOps returns the total operation count.
func (s Snapshot) TotalOps() int64 {
	var t int64
	for _, o := range s.Ops {
		t += o
	}
	return t
}

// TotalTime returns the total simulated I/O time.
func (s Snapshot) TotalTime() time.Duration {
	var t time.Duration
	for _, d := range s.Time {
		t += d
	}
	return t
}

// Sub returns the delta s - prev, counter-wise. Use it to attribute I/O to a
// phase: snapshot before, snapshot after, subtract.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var out Snapshot
	for c := 0; c < int(numClasses); c++ {
		out.Bytes[c] = s.Bytes[c] - prev.Bytes[c]
		out.Ops[c] = s.Ops[c] - prev.Ops[c]
		out.Time[c] = s.Time[c] - prev.Time[c]
	}
	out.Retries = s.Retries - prev.Retries
	return out
}

// String renders the snapshot compactly for logs and reports.
func (s Snapshot) String() string {
	var b strings.Builder
	for c := Class(0); c < numClasses; c++ {
		if s.Ops[c] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s/%dops/%v", c, FormatBytes(s.Bytes[c]), s.Ops[c], s.Time[c].Round(time.Microsecond))
	}
	if b.Len() == 0 {
		return "no I/O"
	}
	if s.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", s.Retries)
	}
	return b.String()
}

// FormatBytes renders a byte count in human units.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
