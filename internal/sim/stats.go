package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// LatencyRecorder accumulates per-operation latencies in a log-bucketed
// histogram (for percentiles) and, optionally, a down-sampled time series
// (for the paper's latency-vs-time figures, e.g., Figures 7, 9, 10, 11).
type LatencyRecorder struct {
	count   int64
	sum     Duration
	min     Duration
	max     Duration
	buckets [nLatBuckets]int64

	series       []SeriesPoint
	seriesEvery  int64 // record 1 of every N samples; 0 disables the series
	seriesCursor int64
}

// SeriesPoint is a single (virtual time, latency) observation.
type SeriesPoint struct {
	At      Time
	Latency Duration
}

const nLatBuckets = 64 * 8 // 8 sub-buckets per power of two up to 2^63

// NewLatencyRecorder returns a recorder. If seriesEvery > 0 the recorder
// also keeps one of every seriesEvery samples as a time-series point.
func NewLatencyRecorder(seriesEvery int64) *LatencyRecorder {
	return &LatencyRecorder{min: math.MaxInt64, seriesEvery: seriesEvery}
}

func latBucket(d Duration) int {
	if d < 1 {
		d = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(d))
	// 8 linear sub-buckets inside each power of two.
	var sub int
	if exp >= 3 {
		sub = int((uint64(d) >> (uint(exp) - 3)) & 7)
	}
	b := exp*8 + sub
	if b >= nLatBuckets {
		b = nLatBuckets - 1
	}
	return b
}

// bucketUpper returns a representative latency for bucket b (its upper edge).
func bucketUpper(b int) Duration {
	exp := b / 8
	sub := b % 8
	if exp < 3 {
		return Duration(1) << uint(exp+1)
	}
	base := Duration(1) << uint(exp)
	step := base / 8
	return base + Duration(sub+1)*step
}

// Record adds one observation taken at virtual time at.
func (l *LatencyRecorder) Record(at Time, d Duration) {
	l.count++
	l.sum += d
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.buckets[latBucket(d)]++
	if l.seriesEvery > 0 {
		l.seriesCursor++
		if l.seriesCursor >= l.seriesEvery {
			l.seriesCursor = 0
			l.series = append(l.series, SeriesPoint{At: at, Latency: d})
		}
	}
}

// Count returns the number of recorded observations.
func (l *LatencyRecorder) Count() int64 { return l.count }

// Mean returns the mean latency, or 0 with no observations.
func (l *LatencyRecorder) Mean() Duration {
	if l.count == 0 {
		return 0
	}
	return Duration(int64(l.sum) / l.count)
}

// Min returns the smallest observation (0 if none).
func (l *LatencyRecorder) Min() Duration {
	if l.count == 0 {
		return 0
	}
	return l.min
}

// Max returns the largest observation.
func (l *LatencyRecorder) Max() Duration { return l.max }

// Percentile returns an upper bound for the p-th percentile (p in [0,100]).
func (l *LatencyRecorder) Percentile(p float64) Duration {
	if l.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(l.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range l.buckets {
		seen += c
		if seen >= rank {
			return bucketUpper(b)
		}
	}
	return l.max
}

// Series returns the recorded time series (nil when disabled).
func (l *LatencyRecorder) Series() []SeriesPoint { return l.series }

// Reset discards all state, keeping the series sampling rate.
func (l *LatencyRecorder) Reset() {
	every := l.seriesEvery
	*l = LatencyRecorder{min: math.MaxInt64, seriesEvery: every}
}

// Summary renders a single-line human-readable digest.
func (l *LatencyRecorder) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		l.count, l.Mean(), l.Percentile(50), l.Percentile(99), l.Max())
}

// Throughput is a helper computing MB/s given bytes moved over a span of
// virtual time. It returns 0 for an empty span.
func Throughput(bytes int64, span Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / span.Seconds()
}

// MeanStddev returns the mean and sample standard deviation of xs.
func MeanStddev(xs []float64) (mean, stddev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// BandwidthWindow aggregates completed bytes into fixed-width windows of
// virtual time, yielding a bandwidth-vs-time series (Figure 12).
type BandwidthWindow struct {
	width   Duration
	points  []BWPoint
	cur     Time
	bytes   int64
	started bool
}

// BWPoint is one (window start, MB/s) sample.
type BWPoint struct {
	At   Time
	MBps float64
}

// NewBandwidthWindow returns an aggregator with the given window width.
func NewBandwidthWindow(width Duration) *BandwidthWindow {
	return &BandwidthWindow{width: width}
}

// Add records that n bytes completed at virtual time at. Calls must be in
// non-decreasing time order. The first call anchors the window origin, so
// measurements that begin mid-simulation do not emit leading empty windows.
func (b *BandwidthWindow) Add(at Time, n int64) {
	if !b.started {
		b.started = true
		b.cur = at - at%Time(b.width)
	}
	for at >= b.cur.Add(b.width) {
		b.flush()
	}
	b.bytes += n
}

func (b *BandwidthWindow) flush() {
	b.points = append(b.points, BWPoint{At: b.cur, MBps: Throughput(b.bytes, b.width)})
	b.cur = b.cur.Add(b.width)
	b.bytes = 0
}

// Points flushes the current window and returns all samples.
func (b *BandwidthWindow) Points() []BWPoint {
	if b.bytes > 0 {
		b.flush()
	}
	return b.points
}
