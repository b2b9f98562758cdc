package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestWorkersRunAndStop: every task runs once on each worker, a later task
// sees the earlier ones' writes, and stop leaves no helper behind.
func TestWorkersRunAndStop(t *testing.T) {
	before := runtime.NumGoroutine()
	const n, rounds = 4, 200
	p := startWorkers(n)
	var hits [n]atomic.Int64
	total := 0
	perWorker := make([]int, n)
	count := func(w int) {
		hits[w].Add(1)
		perWorker[w]++ // unsynchronised on purpose: -race checks run's ordering
	}
	for r := 0; r < rounds; r++ {
		p.run(count)
		for _, c := range perWorker {
			total += c
		}
	}
	p.stop()
	for w := range hits {
		if got := hits[w].Load(); got != rounds {
			t.Errorf("worker %d ran %d tasks, want %d", w, got, rounds)
		}
	}
	if want := n * rounds * (rounds + 1) / 2; total != want {
		t.Errorf("running total %d, want %d", total, want)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after stop, %d before start", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpanCut: the shares tile [lo, hi) in order, and every boundary between
// two shares is a multiple of 64.
func TestSpanCut(t *testing.T) {
	f := func(lo16, len16 uint16, w8 uint8) bool {
		lo, workers := int(lo16), int(w8)%9+1
		hi := lo + int(len16)
		next := lo
		for w := 0; w < workers; w++ {
			a, b := spanCut(lo, hi, w, workers)
			if a >= b {
				continue
			}
			if a != next || (a != lo && a%64 != 0) {
				return false
			}
			next = b
		}
		return next == hi || lo == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
