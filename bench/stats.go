package main

import (
	"math"
	"sort"
)

// median of xs; 0 when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted.
func percentile(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailSteps are the percentiles a tail metric may fall back through.
var tailSteps = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest step at or below want that still has at
// least ten samples beyond it: a p99 of 300 samples is three samples' worth
// of evidence, a p90 of the same 300 is thirty. With too few samples for any
// step it settles for the median. sorted must be ascending and non-empty.
func tailPercentile(sorted []int64, want float64) (value int64, used float64) {
	for _, p := range tailSteps {
		if p > want {
			continue
		}
		if float64(len(sorted))*(100-p)/100 >= 10-1e-9 { // 0.1% of 10000 is 9.999... in floating point
			return percentile(sorted, p), p
		}
	}
	return percentile(sorted, 50), 50
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianNs is the median of a latency sample in ns; 0 when empty.
func medianNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(percentile(sortedCopy(xs), 50))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the driver's spread check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4 // after the clamp, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
