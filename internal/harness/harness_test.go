package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"iosnap/internal/sim"
)

func TestRegistryCanonicalOrder(t *testing.T) {
	ids := IDs()
	if len(ids) < len(canonicalOrder) {
		t.Fatalf("registered %d experiments, canonical list has %d", len(ids), len(canonicalOrder))
	}
	for i, want := range canonicalOrder {
		if ids[i] != want {
			t.Fatalf("order[%d] = %q, want %q", i, ids[i], want)
		}
	}
	// Extensions (beyond the paper's artifacts) follow the canonical list.
	for _, id := range ids[len(canonicalOrder):] {
		if id == "" {
			t.Fatal("empty extension id")
		}
	}
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok || e.ID != id {
			t.Fatalf("Lookup(%q) failed", id)
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %q incompletely registered", id)
		}
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Fatal("Lookup of unknown id succeeded")
	}
}

func TestTableRendering(t *testing.T) {
	r := &Report{
		ID:    "x",
		Title: "demo",
		Tables: []Table{{
			Title:  "t",
			Header: []string{"A", "LongHeader"},
			Rows:   [][]string{{"aaaa", "b"}, {"c", "dd"}},
		}},
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x — demo ==") {
		t.Fatalf("missing title: %s", out)
	}
	lines := strings.Split(out, "\n")
	var headerLine, sepLine string
	for i, l := range lines {
		if strings.HasPrefix(l, "A ") {
			headerLine = l
			sepLine = lines[i+1]
		}
	}
	if headerLine == "" {
		t.Fatalf("no header line in: %s", out)
	}
	// Alignment: separator must be at least as long as the header text.
	if len(sepLine) < len("A") {
		t.Fatalf("separator wrong: %q", sepLine)
	}
	if !strings.Contains(out, "aaaa") || !strings.Contains(out, "dd") {
		t.Fatal("rows missing")
	}
}

func TestSeriesRendering(t *testing.T) {
	s := Series{Name: "lat", XLabel: "t", YLabel: "us", X: []float64{0, 1, 2}, Y: []float64{1, 100, 1}}
	var buf bytes.Buffer
	s.render(&buf)
	out := buf.String()
	if !strings.Contains(out, "min=1") || !strings.Contains(out, "max=100") {
		t.Fatalf("summary wrong: %s", out)
	}
	// Empty series must not panic.
	e := Series{Name: "empty"}
	e.render(&buf)
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	flat := sparkline([]float64{5, 5, 5, 5}, 4)
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat series should render all-low: %q", flat)
		}
	}
	spike := sparkline([]float64{0, 0, 100, 0}, 4)
	if !strings.ContainsRune(spike, '█') {
		t.Fatalf("spike not visible: %q", spike)
	}
	// Width larger than data must clamp.
	if got := sparkline([]float64{1, 2}, 80); len([]rune(got)) != 2 {
		t.Fatalf("width not clamped: %d", len([]rune(got)))
	}
}

func TestCSVOutput(t *testing.T) {
	r := &Report{
		ID: "exp",
		Tables: []Table{{
			Title:  "has,comma",
			Header: []string{"a", "b"},
			Rows:   [][]string{{"1", "va\"l"}},
		}},
		Series: []Series{{Name: "s", XLabel: "x", YLabel: "y", X: []float64{1.5}, Y: []float64{2.5}}},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"has,comma"`) {
		t.Fatalf("comma not escaped: %s", out)
	}
	if !strings.Contains(out, `"va""l"`) {
		t.Fatalf("quote not escaped: %s", out)
	}
	if !strings.Contains(out, "1.5,2.5") {
		t.Fatalf("series row missing: %s", out)
	}
	if err := r.WriteCSV(failingWriter{}); err == nil {
		t.Fatal("WriteCSV swallowed a write error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWorstWindowMean(t *testing.T) {
	mk := func(times []int64, lats []int64) []sim.SeriesPoint {
		pts := make([]sim.SeriesPoint, len(times))
		for i := range times {
			pts[i] = sim.SeriesPoint{At: sim.Time(times[i]), Latency: sim.Duration(lats[i])}
		}
		return pts
	}
	if got := worstWindowMean(nil, 100); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// 20 points 1 apart with a hot middle cluster; tail clipping removes
	// the last 5ms so build times in microseconds with a wide span.
	var times, lats []int64
	for i := 0; i < 200; i++ {
		times = append(times, int64(i)*int64(100*sim.Microsecond))
		l := int64(10)
		if i >= 50 && i < 70 {
			l = 1000
		}
		lats = append(lats, l)
	}
	w := worstWindowMean(mk(times, lats), sim.Duration(2*sim.Millisecond))
	if w < 500 || w > 1000 {
		t.Fatalf("worst window = %v, want the hot cluster's mean", w)
	}
}

func TestScaledBytesFloor(t *testing.T) {
	rc := RunConfig{Scale: 0.00001}
	if got := scaledBytes(rc, 1<<30); got != 1<<20 {
		t.Fatalf("scaledBytes floor = %d", got)
	}
	if got := scaledBytes(RunConfig{}, 100<<20); got != 100<<20 {
		t.Fatalf("zero scale should mean 1.0: %d", got)
	}
}

func TestSegmentsFor(t *testing.T) {
	nc := expNand(0)
	segs := segmentsFor(nc, 1<<30)
	capacity := int64(segs) * int64(nc.PagesPerSegment) * int64(nc.SectorSize)
	if capacity < (1<<30)*5/4 {
		t.Fatalf("segmentsFor left too little headroom: %d bytes for 1 GB", capacity)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtBytes(512) != "512B" {
		t.Fatal(fmtBytes(512))
	}
	if fmtBytes(4096) != "4.00KB" {
		t.Fatal(fmtBytes(4096))
	}
	if fmtBytes(3<<20) != "3.00MB" {
		t.Fatal(fmtBytes(3 << 20))
	}
	if fmtBytes(2<<30) != "2.00GB" {
		t.Fatal(fmtBytes(2 << 30))
	}
	if fmtMBps(12.345) != "12.35" {
		t.Fatal(fmtMBps(12.345))
	}
}

func TestMedianAndSeriesHelpers(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	s := seriesFromLatency("x", []sim.SeriesPoint{{At: sim.Time(sim.Second), Latency: 5 * sim.Microsecond}})
	if s.X[0] != 1 || s.Y[0] != 5 {
		t.Fatalf("seriesFromLatency = %+v", s)
	}
	b := seriesFromBandwidth("y", []sim.BWPoint{{At: sim.Time(2 * sim.Second), MBps: 7}})
	if b.X[0] != 2 || b.Y[0] != 7 {
		t.Fatalf("seriesFromBandwidth = %+v", b)
	}
}
