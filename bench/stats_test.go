package main

import "testing"

func ramp(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

// A tail percentile needs ten samples beyond it; with fewer it steps down.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{10000, 99.9, 99.9},
		{10000, 99, 99}, // a metric named p99 never reports above p99
		{1000, 99, 99},  // exactly ten beyond
		{999, 99, 95},   // 9.99 beyond p99
		{200, 99, 95},   // exactly ten beyond p95
		{199, 99, 90},
		{100, 90, 90},
		{99, 90, 75},
		{40, 99, 75},
		{39, 99, 50},
		{5, 99, 50}, // too few for any step: the median
	} {
		v, used := tailPercentile(ramp(c.n), c.want)
		if used != c.used {
			t.Errorf("n=%d want<=p%g: used p%g, want p%g", c.n, c.want, used, c.used)
		}
		if v != percentile(ramp(c.n), used) {
			t.Errorf("n=%d: value %d is not the p%g", c.n, v, used)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(100)
	for p, want := range map[float64]int64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
}

// The reference values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1.5, 9, 2.6, 5}, 1.5, 5},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even: %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty: %g", m)
	}
}
