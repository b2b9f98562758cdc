// Package pipeline overlaps sub-block I/O with computation. A Prefetcher
// walks a fixed request sequence — the engine's iteration order — fetching
// blocks ahead of the consumer under two bounds: at most Depth blocks may be
// in flight ahead of the consumer, and their decoded payloads may occupy at
// most Bytes bytes. Blocks are delivered strictly in request order, so the
// consumer's processing order (and therefore every result the engine
// produces) is identical to the synchronous path; only the wall-clock
// placement of the reads changes.
//
// The first fetch error cancels admission of every not-yet-started request
// and is surfaced to the consumer at that block's position in the sequence.
package pipeline

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Request names one block of the fetch sequence by its grid coordinates and
// carries the byte size used for window admission.
type Request struct {
	I, J  int
	Bytes int64
}

// Stats reports a prefetcher's outcomes. Fetch is the summed wall-clock
// duration of the fetch calls; Stall is the wall-clock the consumer spent
// blocked in Next waiting for a block; Overlap is the share of fetch work
// hidden behind the consumer's computation (Fetch − Stall, floored at zero).
type Stats struct {
	Blocks int
	Bytes  int64
	// Inline counts the blocks of Blocks the consumer loaded itself, in
	// order, where a pipeline would not pay for its hand-off: fetch and
	// stall both carry their whole load time. The consumer maintains it.
	Inline int
	// Fallbacks counts blocks that were loaded synchronously after the
	// consumer degraded from pipelined to synchronous reads on a transient
	// fetch fault. The consumer increments it — the prefetcher itself only
	// ever reports what it delivered.
	Fallbacks int
	// Skipped counts non-empty sub-blocks the consumer never fetched
	// because the semi-external-memory active bitmap proved they carry no
	// active edges; SkippedBytes is their on-disk size. Like Fallbacks,
	// these are consumer-maintained.
	Skipped      int
	SkippedBytes int64
	Stall        time.Duration
	Fetch        time.Duration
	Overlap      time.Duration
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Blocks:       s.Blocks + o.Blocks,
		Bytes:        s.Bytes + o.Bytes,
		Inline:       s.Inline + o.Inline,
		Fallbacks:    s.Fallbacks + o.Fallbacks,
		Skipped:      s.Skipped + o.Skipped,
		SkippedBytes: s.SkippedBytes + o.SkippedBytes,
		Stall:        s.Stall + o.Stall,
		Fetch:        s.Fetch + o.Fetch,
		Overlap:      s.Overlap + o.Overlap,
	}
}

// Sub returns the field-wise difference s − o. Use it to attribute pipeline
// activity to a phase: snapshot before, snapshot after, subtract.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Blocks:       s.Blocks - o.Blocks,
		Bytes:        s.Bytes - o.Bytes,
		Inline:       s.Inline - o.Inline,
		Fallbacks:    s.Fallbacks - o.Fallbacks,
		Skipped:      s.Skipped - o.Skipped,
		SkippedBytes: s.SkippedBytes - o.SkippedBytes,
		Stall:        s.Stall - o.Stall,
		Fetch:        s.Fetch - o.Fetch,
		Overlap:      s.Overlap - o.Overlap,
	}
}

// Options bounds a prefetcher's read-ahead window.
type Options struct {
	// Depth is the maximum number of blocks in flight ahead of the
	// consumer, which is also the fetch concurrency. Values below 1 are
	// treated as 1.
	Depth int
	// Bytes bounds the decoded bytes held by in-flight and
	// ready-but-unconsumed blocks. Zero means unlimited. A single request
	// larger than the budget is admitted when it is alone in the window,
	// so an oversized block degrades to synchronous loading instead of
	// deadlocking.
	Bytes int64
}

// ErrClosed is returned by Next after the request sequence is exhausted or
// the prefetcher was closed without a recorded fetch error.
var ErrClosed = errors.New("pipeline: prefetcher closed")

type slot[T any] struct {
	seq  int // position in the request sequence
	req  Request
	val  T
	err  error
	dur  time.Duration
	done chan struct{}
}

// Prefetcher fetches a fixed sequence of blocks ahead of a single consumer.
// Next must be called from one goroutine; fetch is called from the
// prefetcher's own goroutines and must be safe to run concurrently with the
// consumer and with other fetches.
type Prefetcher[T any] struct {
	fetch func(Request) (T, error)
	order chan *slot[T]
	depth chan struct{}

	stop     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	inflight int64 // decoded bytes admitted and not yet consumed
	budget   int64
	byteCond *sync.Cond
	stopped  bool
	firstErr error
	failSeq  int // sequence position of the first fetch error
	stats    Stats

	// abandoned is the slot a cancelled NextCtx had already taken off order
	// when it gave up; Close waits for its fetch like for any other. Only the
	// consumer's goroutine touches it.
	abandoned *slot[T]
}

// New starts a prefetcher over reqs. The fetch function loads and decodes
// one block; its result is delivered to the consumer in request order via
// Next. The caller must either drain the sequence or call Close.
func New[T any](reqs []Request, fetch func(Request) (T, error), opts Options) *Prefetcher[T] {
	depth := opts.Depth
	if depth < 1 {
		depth = 1
	}
	p := &Prefetcher[T]{
		fetch:  fetch,
		order:  make(chan *slot[T], len(reqs)),
		depth:  make(chan struct{}, depth),
		stop:   make(chan struct{}),
		budget: opts.Bytes,
	}
	p.byteCond = sync.NewCond(&p.mu)
	p.failSeq = len(reqs)
	go p.dispatch(reqs)
	return p
}

// dispatch admits requests in order under the depth and byte bounds,
// spawning one fetch goroutine per admitted block.
func (p *Prefetcher[T]) dispatch(reqs []Request) {
	defer close(p.order)
	for seq, req := range reqs {
		select {
		case p.depth <- struct{}{}:
		case <-p.stop:
			return
		}
		if !p.admitBytes(req.Bytes) {
			return
		}
		s := &slot[T]{seq: seq, req: req, done: make(chan struct{})}
		p.order <- s // buffered to len(reqs); never blocks
		go p.run(s)
	}
}

// admitBytes blocks until req fits in the byte window (or the window is
// empty, for oversized requests). It reports false when the prefetcher was
// stopped while waiting.
func (p *Prefetcher[T]) admitBytes(n int64) bool {
	if p.budget <= 0 {
		return !p.isStopped()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.stopped && p.inflight > 0 && p.inflight+n > p.budget {
		p.byteCond.Wait()
	}
	if p.stopped {
		return false
	}
	p.inflight += n
	return true
}

func (p *Prefetcher[T]) isStopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// run executes one admitted fetch and publishes its outcome. After a stop,
// only fetches positioned past the failing block are refused — blocks the
// consumer will reach before the error must still deliver their data so the
// error surfaces at exactly the failing position.
func (p *Prefetcher[T]) run(s *slot[T]) {
	defer close(s.done)
	p.mu.Lock()
	refuse := p.stopped && (p.firstErr == nil || s.seq > p.failSeq)
	p.mu.Unlock()
	if refuse {
		s.err = ErrClosed
		return
	}
	t0 := time.Now()
	s.val, s.err = p.fetch(s.req)
	s.dur = time.Since(t0)
	if s.err != nil {
		p.cancel(s.err, s.seq)
	}
}

// cancel records the earliest-positioned error and stops admission of
// further requests. A nil err (Close) stops everything unconditionally.
func (p *Prefetcher[T]) cancel(err error, seq int) {
	p.mu.Lock()
	if err != nil && seq < p.failSeq {
		p.firstErr, p.failSeq = err, seq
	}
	p.stopped = true
	p.mu.Unlock()
	p.stopOnce.Do(func() { close(p.stop) })
	p.byteCond.Broadcast()
}

// release returns a consumed block's depth and byte reservations.
func (p *Prefetcher[T]) release(n int64) {
	<-p.depth
	if p.budget > 0 {
		p.mu.Lock()
		p.inflight -= n
		p.mu.Unlock()
		p.byteCond.Broadcast()
	}
}

// Next returns the next block of the sequence, blocking until its fetch
// completes. The time spent blocked is accounted as consumer stall. After
// the sequence is exhausted (or Close) it returns ErrClosed; after a fetch
// error it returns that error at the failing block's position.
func (p *Prefetcher[T]) Next() (Request, T, error) {
	return p.NextCtx(context.Background())
}

// NextCtx is Next with a cancellation escape: if ctx is cancelled while the
// consumer is blocked — either waiting for the next slot or for its fetch to
// finish — it returns ctx.Err() immediately rather than riding out the
// in-flight device read. The abandoned slot stays owned by the prefetcher;
// the caller must still Close it, which waits out in-flight fetches and
// releases their buffers. A ctx error is not a fetch error: it is not
// recorded as firstErr and does not stop admission on its own.
func (p *Prefetcher[T]) NextCtx(ctx context.Context) (Request, T, error) {
	var zero T
	// Checked first so an already-dead ctx short-circuits deterministically:
	// a bare select would pick at random between Done and a ready result.
	if err := ctx.Err(); err != nil {
		return Request{}, zero, err
	}
	t0 := time.Now()
	var s *slot[T]
	var ok bool
	select {
	case s, ok = <-p.order:
	case <-ctx.Done():
		return Request{}, zero, ctx.Err()
	}
	if !ok {
		p.mu.Lock()
		err := p.firstErr
		p.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return Request{}, zero, err
	}
	select {
	case <-s.done:
	case <-ctx.Done():
		// A cancelled consumer never calls Next again, so the slot is not
		// put back; Close waits out its fetch.
		p.abandoned = s
		return Request{}, zero, ctx.Err()
	}
	stall := time.Since(t0)
	p.release(s.req.Bytes)
	p.mu.Lock()
	p.stats.Stall += stall
	if s.err == nil {
		p.stats.Blocks++
		p.stats.Bytes += s.req.Bytes
		p.stats.Fetch += s.dur
	}
	p.mu.Unlock()
	if s.err != nil {
		p.cancel(s.err, s.seq)
		return s.req, zero, s.err
	}
	return s.req, s.val, nil
}

// Close cancels every not-yet-started fetch and releases waiters. It is
// idempotent and safe to call while fetches are in flight; in-flight fetch
// calls run to completion — Close returns after they have — but their results
// are discarded.
func (p *Prefetcher[T]) Close() {
	p.cancel(nil, 0)
	if s := p.abandoned; s != nil {
		<-s.done
	}
	// Drain delivered-but-unconsumed slots so their goroutines' results
	// are released; the order channel is buffered so this never blocks.
	for {
		select {
		case s, ok := <-p.order:
			if !ok {
				return
			}
			<-s.done
		default:
			return
		}
	}
}

// Stats returns the accumulated pipeline outcomes. Overlap is derived as
// the fetch time not witnessed by the consumer as stall.
func (p *Prefetcher[T]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	if st.Fetch > st.Stall {
		st.Overlap = st.Fetch - st.Stall
	}
	return st
}
