package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which need not be sorted; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(p, len(s))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile in n samples;
// the tolerance keeps float error in p/100*n (99.9% of 10000) from
// rounding the rank up.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportablePercentiles are the tail percentiles the benchmark reports,
// in increasing order.
var reportablePercentiles = []float64{90, 99, 99.9}

// highestPercentile returns the highest reportable percentile that has
// at least 10 samples beyond it in a sample of n, or 0 when even p90
// lacks them (n < 100).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportablePercentiles {
		// Samples strictly beyond the nearest-rank p-th percentile.
		beyond := n - nearestRank(p, n)
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latenciesMs(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = millis(o.latency())
	}
	return out
}
