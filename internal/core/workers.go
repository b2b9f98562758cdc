package core

import (
	"sync"

	"github.com/graphsd/graphsd/internal/graph"
)

// workers runs one task at a time on a fixed set of goroutines: the caller
// as worker 0 and n-1 helpers that live until stop. A go statement per
// scatter call would allocate a closure per worker per sub-block; waking a
// parked helper allocates nothing.
type workers struct {
	n    int
	task func(w int)
	wake []chan struct{} // wake[w] starts helper w on task; closed by stop
	done sync.WaitGroup  // helpers still inside the current task
	exit sync.WaitGroup  // helpers still alive
}

func startWorkers(n int) *workers {
	p := &workers{n: n, wake: make([]chan struct{}, n)}
	for w := 1; w < n; w++ {
		p.wake[w] = make(chan struct{})
		p.exit.Add(1)
		go func(w int) {
			defer p.exit.Done()
			for range p.wake[w] {
				p.task(w)
				p.done.Done()
			}
		}(w)
	}
	return p
}

// run calls task(w) for every w in [0, n) — task(0) on the calling goroutine —
// and returns when all have. task must be a value that outlives the call
// without allocating: a method value bound once, not a closure over locals.
func (p *workers) run(task func(w int)) {
	p.task = task
	p.done.Add(p.n - 1)
	for w := 1; w < p.n; w++ {
		p.wake[w] <- struct{}{}
	}
	task(0)
	p.done.Wait()
}

// stop ends the helpers and returns once they have exited.
func (p *workers) stop() {
	for w := 1; w < p.n; w++ {
		close(p.wake[w])
	}
	p.exit.Wait()
}

// parallel is the engine's fan-out state: the helper goroutines, each
// worker's private scatter accumulators, and the job the current fan-out
// works on. Jobs are passed through fields and tasks are method values bound
// once, so a fan-out allocates nothing.
type parallel struct {
	pool     *workers
	privates []private // privates[0] is unused: worker 0 writes the engine's arrays
	applied  []applied // per-worker result of an apply task

	scatterTask, reduceTask, applyTask func(w int)

	// Scatter job: the edges, worker 0's view of the arrays, and the
	// 64-aligned destination span the private arrays cover.
	edges      []graph.Edge
	args       scatterArgs
	base, span int

	// Apply job: the vertex range.
	lo, hi int
}

// parallelState returns the fan-out state, starting the helpers on first use.
func (e *Engine) parallelState() *parallel {
	if e.par == nil {
		e.par = &parallel{
			pool:        startWorkers(e.threads),
			privates:    make([]private, e.threads),
			applied:     make([]applied, e.threads),
			scatterTask: e.scatterWorker,
			reduceTask:  e.reduceWorker,
			applyTask:   e.applyWorker,
		}
	}
	return e.par
}

func (e *Engine) stopParallel() {
	if e.par != nil {
		e.par.pool.stop()
		e.par = nil
	}
}

// spanCut returns worker w's share [a, b) of the vertex range [lo, hi) cut
// `workers` ways at multiples of 64, so that no two shares meet inside a
// bitset word. The share is empty when a >= b.
func spanCut(lo, hi, w, workers int) (a, b int) {
	base := lo &^ 63
	per := ((hi-base+workers-1)/workers + 63) &^ 63
	return max(lo, base+w*per), min(hi, base+(w+1)*per)
}
