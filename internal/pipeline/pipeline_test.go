package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func seqRequests(n int, bytes int64) []Request {
	reqs := make([]Request, n)
	for k := range reqs {
		reqs[k] = Request{I: k, J: k % 3, Bytes: bytes}
	}
	return reqs
}

// TestInOrderDelivery checks that blocks arrive in request order regardless
// of fetch completion order.
func TestInOrderDelivery(t *testing.T) {
	reqs := seqRequests(32, 100)
	fetch := func(r Request) (int, error) {
		// Earlier blocks sleep longer, so completion order is reversed
		// within each window; delivery order must still be ascending.
		time.Sleep(time.Duration(32-r.I) * 10 * time.Microsecond)
		return r.I * 7, nil
	}
	p := New(reqs, fetch, Options{Depth: 8})
	defer p.Close()
	for k := 0; k < len(reqs); k++ {
		req, v, err := p.Next()
		if err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		if req.I != k || v != k*7 {
			t.Fatalf("block %d: got req %d val %d", k, req.I, v)
		}
	}
	if _, _, err := p.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after exhaustion: err = %v, want ErrClosed", err)
	}
	st := p.Stats()
	if st.Blocks != 32 || st.Bytes != 3200 {
		t.Fatalf("stats = %+v, want 32 blocks / 3200 bytes", st)
	}
}

// TestErrorCancelsInFlight checks the contract the engine relies on: an
// error on block k surfaces at position k and stops every not-yet-started
// fetch from running.
func TestErrorCancelsInFlight(t *testing.T) {
	const n, failAt, depth = 64, 5, 2
	var fetched atomic.Int64
	var maxStarted atomic.Int64
	wantErr := errors.New("disk on fire")
	fetch := func(r Request) (int, error) {
		fetched.Add(1)
		for {
			cur := maxStarted.Load()
			if int64(r.I) <= cur || maxStarted.CompareAndSwap(cur, int64(r.I)) {
				break
			}
		}
		if r.I == failAt {
			return 0, wantErr
		}
		return r.I, nil
	}
	p := New(seqRequests(n, 10), fetch, Options{Depth: depth})
	defer p.Close()
	for k := 0; k < failAt; k++ {
		req, _, err := p.Next()
		if err != nil || req.I != k {
			t.Fatalf("block %d: req %d err %v", k, req.I, err)
		}
	}
	if _, _, err := p.Next(); !errors.Is(err, wantErr) {
		t.Fatalf("block %d: err = %v, want %v", failAt, err, wantErr)
	}
	// Admission stops once the error is observed; only fetches already in
	// the depth window when block failAt errored can ever have started.
	if got := maxStarted.Load(); got > failAt+depth {
		t.Fatalf("fetch for block %d started after error at %d with depth %d", got, failAt, depth)
	}
	if got := fetched.Load(); got > failAt+depth+1 {
		t.Fatalf("%d fetches ran, want at most %d", got, failAt+depth+1)
	}
}

// TestByteBudget checks that the decoded-byte window is respected and that
// an oversized block is admitted alone rather than deadlocking.
func TestByteBudget(t *testing.T) {
	var inflight, peak atomic.Int64
	fetch := func(r Request) (int, error) {
		cur := inflight.Add(r.Bytes)
		for {
			m := peak.Load()
			if cur <= m || peak.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		return 0, nil
	}
	reqs := seqRequests(16, 100)
	reqs[7].Bytes = 5000 // larger than the whole budget
	p := New(reqs, fetch, Options{Depth: 8, Bytes: 250})
	defer p.Close()
	for k := range reqs {
		req, _, err := p.Next()
		if err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		inflight.Add(-req.Bytes)
	}
	// Budget admits at most two 100-byte blocks concurrently; the
	// oversized block must have been alone (5000, not 5000+100).
	if got := peak.Load(); got != 5000 {
		t.Fatalf("peak in-flight bytes = %d, want oversized block alone (5000)", got)
	}
}

// TestByteBudgetBoundsSmallBlocks verifies the window bound when every
// block fits: with budget 250 and 100-byte blocks, never 3 in flight.
func TestByteBudgetBoundsSmallBlocks(t *testing.T) {
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	fetch := func(r Request) (int, error) {
		cur := inflight.Add(r.Bytes)
		for {
			m := peak.Load()
			if cur <= m || peak.CompareAndSwap(m, cur) {
				break
			}
		}
		<-release
		return 0, nil
	}
	p := New(seqRequests(8, 100), fetch, Options{Depth: 8, Bytes: 250})
	defer p.Close()
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond) // let admission saturate
		close(release)
	}()
	for k := 0; k < 8; k++ {
		req, _, err := p.Next()
		if err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
		inflight.Add(-req.Bytes)
	}
	wg.Wait()
	if got := peak.Load(); got > 250 {
		t.Fatalf("peak in-flight bytes = %d, want <= 250", got)
	}
}

// TestCloseEarly checks that abandoning the sequence mid-way neither leaks
// nor deadlocks, and that Close is idempotent.
func TestCloseEarly(t *testing.T) {
	fetch := func(r Request) (int, error) {
		time.Sleep(20 * time.Microsecond)
		return r.I, nil
	}
	p := New(seqRequests(100, 10), fetch, Options{Depth: 4, Bytes: 25})
	for k := 0; k < 3; k++ {
		if _, _, err := p.Next(); err != nil {
			t.Fatalf("block %d: %v", k, err)
		}
	}
	p.Close()
	p.Close()
	if _, _, err := p.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: err = %v, want ErrClosed", err)
	}
}

// TestOverlapAccounting checks that fetch work done while the consumer is
// busy elsewhere shows up as overlap, not stall.
func TestOverlapAccounting(t *testing.T) {
	const fetchDur = 2 * time.Millisecond
	fetch := func(r Request) (int, error) {
		time.Sleep(fetchDur)
		return 0, nil
	}
	p := New(seqRequests(8, 10), fetch, Options{Depth: 4})
	defer p.Close()
	for k := 0; k < 8; k++ {
		if _, _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(fetchDur) // simulated compute the pipeline hides behind
	}
	st := p.Stats()
	if st.Fetch < 8*fetchDur {
		t.Fatalf("fetch time %v, want >= %v", st.Fetch, 8*fetchDur)
	}
	if st.Overlap == 0 {
		t.Fatalf("no overlap recorded: %+v", st)
	}
	if st.Overlap != st.Fetch-st.Stall {
		t.Fatalf("overlap %v != fetch %v - stall %v", st.Overlap, st.Fetch, st.Stall)
	}
}

// TestStatsAddSub exercises the snapshot arithmetic the engine uses for
// per-iteration attribution.
func TestStatsAddSub(t *testing.T) {
	a := Stats{Blocks: 3, Bytes: 30, Inline: 2, Stall: 5, Fetch: 9, Overlap: 4}
	b := Stats{Blocks: 1, Bytes: 10, Inline: 1, Stall: 2, Fetch: 3, Overlap: 1}
	sum := a.Add(b)
	if sum.Blocks != 4 || sum.Bytes != 40 || sum.Inline != 3 || sum.Stall != 7 || sum.Fetch != 12 || sum.Overlap != 5 {
		t.Fatalf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Fatalf("Sub = %+v, want %+v", diff, a)
	}
}

// TestZeroRequests covers the empty sequence.
func TestZeroRequests(t *testing.T) {
	p := New(nil, func(Request) (int, error) { return 0, nil }, Options{Depth: 2})
	defer p.Close()
	if _, _, err := p.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestManyDepths runs a quick matrix so the race detector sees the
// interleavings of admission, fetch, delivery and early close.
func TestManyDepths(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 8, 64} {
		for _, budget := range []int64{0, 64, 1 << 20} {
			t.Run(fmt.Sprintf("d%d_b%d", depth, budget), func(t *testing.T) {
				fetch := func(r Request) (int, error) { return r.I, nil }
				p := New(seqRequests(40, 32), fetch, Options{Depth: depth, Bytes: budget})
				defer p.Close()
				for k := 0; k < 40; k++ {
					req, v, err := p.Next()
					if err != nil || req.I != k || v != k {
						t.Fatalf("block %d: req %d val %d err %v", k, req.I, v, err)
					}
				}
			})
		}
	}
}

// TestNextCtxCancelled checks the cancellation contract the engine's
// RunContext relies on: NextCtx returns the context error promptly while the
// in-flight fetch is still blocked inside the device, and Close afterwards
// reclaims the abandoned slot without deadlocking.
func TestNextCtxCancelled(t *testing.T) {
	release := make(chan struct{})
	fetch := func(r Request) (int, error) {
		<-release
		return r.I, nil
	}
	p := New(seqRequests(4, 10), fetch, Options{Depth: 2})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := p.NextCtx(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("NextCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("NextCtx did not observe cancellation while fetch was blocked")
	}

	close(release)
	p.Close()

	// A pre-cancelled context short-circuits even when results are ready.
	p2 := New(seqRequests(2, 10), func(r Request) (int, error) { return r.I, nil }, Options{Depth: 2})
	defer p2.Close()
	if _, v, err := p2.Next(); err != nil || v != 0 {
		t.Fatalf("Next = (%d, %v), want block 0", v, err)
	}
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := p2.NextCtx(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled NextCtx returned %v, want context.Canceled", err)
	}
}
