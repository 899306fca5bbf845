package sim

import (
	"math"
	"testing"
)

func TestLatencyRecorderBasics(t *testing.T) {
	l := NewLatencyRecorder(0)
	for i := 1; i <= 100; i++ {
		l.Record(Time(i), Duration(i)*Microsecond)
	}
	if l.Count() != 100 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Min() != 1*Microsecond {
		t.Fatalf("Min = %v", l.Min())
	}
	if l.Max() != 100*Microsecond {
		t.Fatalf("Max = %v", l.Max())
	}
	mean := l.Mean()
	if mean < 50*Microsecond || mean > 51*Microsecond {
		t.Fatalf("Mean = %v, want ~50.5us", mean)
	}
}

func TestLatencyPercentileMonotone(t *testing.T) {
	l := NewLatencyRecorder(0)
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		l.Record(0, Duration(r.Intn(1000000)+1))
	}
	prev := Duration(0)
	for _, p := range []float64{10, 50, 90, 99, 99.9, 100} {
		v := l.Percentile(p)
		if v < prev {
			t.Fatalf("percentile %v = %v < previous %v", p, v, prev)
		}
		prev = v
	}
}

func TestLatencyPercentileAccuracy(t *testing.T) {
	l := NewLatencyRecorder(0)
	for i := 1; i <= 1000; i++ {
		l.Record(0, Duration(i)*Microsecond)
	}
	p50 := l.Percentile(50)
	// Log-bucketed: allow 25% relative error.
	if math.Abs(p50.Microseconds()-500) > 125 {
		t.Fatalf("p50 = %v, want ~500us", p50)
	}
	p99 := l.Percentile(99)
	if math.Abs(p99.Microseconds()-990) > 250 {
		t.Fatalf("p99 = %v, want ~990us", p99)
	}
}

func TestLatencySeries(t *testing.T) {
	l := NewLatencyRecorder(10)
	for i := 0; i < 100; i++ {
		l.Record(Time(i), Duration(i))
	}
	if got := len(l.Series()); got != 10 {
		t.Fatalf("series length = %d, want 10", got)
	}
}

func TestLatencyReset(t *testing.T) {
	l := NewLatencyRecorder(5)
	l.Record(0, 100)
	l.Reset()
	if l.Count() != 0 || len(l.Series()) != 0 {
		t.Fatal("Reset did not clear state")
	}
	for i := 0; i < 10; i++ {
		l.Record(Time(i), 1)
	}
	if len(l.Series()) != 2 {
		t.Fatalf("series sampling rate lost after Reset: %d", len(l.Series()))
	}
}

func TestThroughput(t *testing.T) {
	mb := Throughput(100<<20, Second)
	if math.Abs(mb-100) > 1e-9 {
		t.Fatalf("Throughput = %v, want 100", mb)
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("zero span should yield 0")
	}
}

func TestMeanStddev(t *testing.T) {
	mean, sd := MeanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(sd-2.138089935) > 1e-6 {
		t.Fatalf("stddev = %v", sd)
	}
	m0, s0 := MeanStddev(nil)
	if m0 != 0 || s0 != 0 {
		t.Fatal("empty input should give zeros")
	}
}

func TestBandwidthWindow(t *testing.T) {
	bw := NewBandwidthWindow(Second)
	bw.Add(Time(100*Millisecond), 10<<20)
	bw.Add(Time(900*Millisecond), 10<<20)
	bw.Add(Time(1100*Millisecond), 30<<20)
	pts := bw.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if math.Abs(pts[0].MBps-20) > 1e-9 {
		t.Fatalf("window 0 = %v MB/s, want 20", pts[0].MBps)
	}
	if math.Abs(pts[1].MBps-30) > 1e-9 {
		t.Fatalf("window 1 = %v MB/s, want 30", pts[1].MBps)
	}
}

func TestBucketMapping(t *testing.T) {
	// Every representative value must land in its own bucket's range.
	for _, d := range []Duration{1, 2, 7, 8, 100, 4096, 1 << 20, 1 << 40} {
		b := latBucket(d)
		if up := bucketUpper(b); up < d {
			t.Fatalf("bucketUpper(%d)=%d < %d", b, up, d)
		}
	}
}
