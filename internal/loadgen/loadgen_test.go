package loadgen

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	oneTo100 := make([]float64, 100)
	for k := range oneTo100 {
		oneTo100[k] = float64(100 - k) // descending: the input need not be sorted
	}
	for _, tc := range []struct {
		name string
		v    []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single-p0", []float64{7}, 0, 7},
		{"single-p50", []float64{7}, 50, 7},
		{"single-p100", []float64{7}, 100, 7},
		{"1..100-p0", oneTo100, 0, 1},
		{"1..100-p50", oneTo100, 50, 50},
		{"1..100-p99", oneTo100, 99, 99},
		{"1..100-p100", oneTo100, 100, 100},
		{"unsorted-p50", []float64{9, 1, 5}, 50, 5},
		{"even-count-p50", []float64{4, 1, 3, 2}, 50, 2},
		{"two-p99", []float64{10, 20}, 99, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]float64(nil), tc.v...)
			if got := percentile(in, tc.p); got != tc.want {
				t.Fatalf("percentile(%v, %v) = %v, want %v", tc.v, tc.p, got, tc.want)
			}
			for k := range in {
				if in[k] != tc.v[k] {
					t.Fatalf("percentile reordered its input: %v", in)
				}
			}
		})
	}
}

func TestBuildReportShares(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, tc := range []struct {
		name      string
		tenants   []Tenant
		jobs      []int64
		shares    []float64
		minShare  float64
		totalJobs int64
	}{
		{"single", []Tenant{{Name: "default"}}, []int64{8}, []float64{1}, 1, 8},
		{"equal", []Tenant{{Name: "a"}, {Name: "b"}}, []int64{5, 5}, []float64{0.5, 0.5}, 0.5, 10},
		{"skewed", []Tenant{{Name: "flood", Workers: 4, Burst: 8}, {Name: "quiet"}, {Name: "idle"}},
			[]int64{30, 10, 0}, []float64{0.75, 0.25, 0}, 0, 40},
		// Nothing completed: shares stay 0 rather than dividing by zero, and
		// the minimum reports it.
		{"no-jobs", []Tenant{{Name: "a"}, {Name: "b"}}, []int64{0, 0}, []float64{0, 0}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tallies := make(map[string]*tally)
			for k, tn := range tc.tenants {
				tallies[tn.Name] = &tally{jobs: tc.jobs[k], mutates: int64(k), rejected: 1, errors: 2,
					lat: []float64{float64(10 * (k + 1)), float64(10*(k+1) + 1)}}
			}
			rep := buildReport(tc.tenants, tallies, 2, 4)
			if rep.Jobs != tc.totalJobs || !near(rep.JobsPS, float64(tc.totalJobs)/4) || rep.DurationS != 4 {
				t.Fatalf("totals: %+v", rep)
			}
			if n := int64(len(tc.tenants)); rep.Rejected != n || rep.Errors != 2*n || rep.Mutates != n*(n-1)/2 {
				t.Fatalf("summed counters: %+v", rep)
			}
			if !near(rep.MinShare, tc.minShare) {
				t.Fatalf("MinShare = %v, want %v", rep.MinShare, tc.minShare)
			}
			var sum float64
			for k, tr := range rep.Tenants {
				if tr.Name != tc.tenants[k].Name || !near(tr.Share, tc.shares[k]) {
					t.Fatalf("tenant %d: %+v, want share %v", k, tr, tc.shares[k])
				}
				if !near(tr.JobsPS, float64(tc.jobs[k])/4) {
					t.Fatalf("tenant %d: %v jobs/s", k, tr.JobsPS)
				}
				wantWorkers := tc.tenants[k].Workers
				if wantWorkers == 0 {
					wantWorkers = 2
				}
				if tr.Workers != wantWorkers || tr.Burst != tc.tenants[k].Burst {
					t.Fatalf("tenant %d: workers %d burst %d", k, tr.Workers, tr.Burst)
				}
				// Two samples: p50 is the lower, p99 the upper.
				if tr.P50ms != float64(10*(k+1)) || tr.P99ms != float64(10*(k+1)+1) {
					t.Fatalf("tenant %d: p50 %v p99 %v", k, tr.P50ms, tr.P99ms)
				}
				sum += tr.Share
			}
			if tc.totalJobs > 0 && !near(sum, 1) {
				t.Fatalf("shares sum to %v", sum)
			}
			// The run-wide percentiles are over every tenant's samples.
			if last := float64(10*len(tc.tenants) + 1); rep.P99ms != last {
				t.Fatalf("overall p99 = %v, want %v", rep.P99ms, last)
			}
		})
	}
}
