package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is a few virtual CPUs of a shared machine
// whose speed changes under it: with nothing else running in the sandbox,
// the same single-threaded PageRank run takes 0.19 s for minutes, then
// 0.22-0.40 s for minutes, as neighbours come and go in the shared cache. No
// summary over one run's ops removes a slowdown that outlasts the run, so
// every time the benchmark reports is scaled to a quiet host instead: a
// frozen piece of work of the same kind (one scatter/apply pass over a fixed
// R-MAT edge list) is timed right beside each op, and the op's time is
// divided by how much slower than refNominal that pass ran.

// refNominal is one pass of the probe's kernel on a quiet host of the class
// the benchmark was defined on (2 vCPU Xeon 2.1 GHz). It is a constant so
// that scaled times compare across runs and commits; on another machine it
// only changes the unit.
const refNominal = 2700 * time.Microsecond

// hostProbe owns the frozen kernel. It is not safe for concurrent use.
type hostProbe struct {
	src, dst []uint32
	val, acc []float64
}

// The kernel's input never changes: not with -seed, not with -scale.
const (
	probeScale      = 17
	probeEdgeFactor = 8
	probeSeed       = 12345
	probePasses     = 3
)

func newHostProbe() *hostProbe {
	g := rmat(probeScale, probeEdgeFactor, false, probeSeed)
	p := &hostProbe{src: make([]uint32, len(g.Edges)), dst: make([]uint32, len(g.Edges)),
		val: make([]float64, g.NumVertices), acc: make([]float64, g.NumVertices)}
	for i, e := range g.Edges {
		p.src[i], p.dst[i] = uint32(e.Src), uint32(e.Dst)
	}
	for v := range p.val {
		p.val[v] = 1 / float64(len(p.val))
	}
	return p
}

// pass scatters along every edge and applies, like one PageRank iteration.
func (p *hostProbe) pass() time.Duration {
	t0 := time.Now()
	for i, s := range p.src {
		p.acc[p.dst[i]] += 0.85 * p.val[s]
	}
	base := 0.15 / float64(len(p.val))
	for v := range p.acc {
		p.val[v] = base + p.acc[v]*1e-3
		p.acc[v] = 0
	}
	return time.Since(t0)
}

// sample returns the host factor now: the median of a few passes over
// refNominal. 1 is a quiet host, 1.5 one that runs this work at two thirds
// of the speed.
func (p *hostProbe) sample() float64 {
	times := make([]float64, probePasses)
	for k := range times {
		times[k] = p.pass().Seconds()
	}
	return median(times) / refNominal.Seconds()
}

// hostWatch samples the host factor in the background, for a workload whose
// ops overlap and so leave no gap to sample in.
type hostWatch struct {
	mu      sync.Mutex
	at      []time.Time
	factors []float64
	stop    chan struct{}
	done    chan struct{}
}

func (p *hostProbe) watch(every time.Duration) *hostWatch {
	w := &hostWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			f, now := p.sample(), time.Now()
			w.mu.Lock()
			w.at, w.factors = append(w.at, now), append(w.factors, f)
			w.mu.Unlock()
			select {
			case <-w.stop:
				return
			case <-time.After(every):
			}
		}
	}()
	return w
}

// close stops the sampler and waits for it.
func (w *hostWatch) close() {
	close(w.stop)
	<-w.done
}

// between returns the mean factor of the samples taken in [from, to], or of
// the nearest sample when none fell inside.
func (w *hostWatch) between(from, to time.Time) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var inside []float64
	nearest, gap := 1.0, time.Duration(-1)
	for k, t := range w.at {
		if !t.Before(from) && !t.After(to) {
			inside = append(inside, w.factors[k])
		}
		if d := min(t.Sub(from).Abs(), t.Sub(to).Abs()); gap < 0 || d < gap {
			nearest, gap = w.factors[k], d
		}
	}
	if len(inside) > 0 {
		return mean(inside)
	}
	return nearest
}
