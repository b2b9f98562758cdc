package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s, n := sorted(v), len(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// nearestRank returns the p-th percentile (0 < p <= 100) of v by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. 0 for an empty slice.
func nearestRank(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[rankOf(p, len(v))-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples. The
// small subtraction keeps a product that is a whole number in exact
// arithmetic (99.9% of 10000) from being rounded up past it.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile that still has at least ten
// samples beyond it, with its nearest-rank value. With too few samples for
// any candidate it reports the median as percentile 50.
func tail(v []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if len(v)-rankOf(p, len(v)) >= 10 {
			return p, nearestRank(v, p)
		}
	}
	return 50, median(v)
}

// ratio returns num/den, 0 when den is 0: counters that never ticked read
// as "no activity", never as NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
