// Package harness defines and runs the paper-reproduction experiments: one
// per table and figure in ioSnap's evaluation (§6), each regenerating the
// same rows or series the paper reports, on the simulated device.
//
// Absolute numbers are simulator-calibrated (see EXPERIMENTS.md); what the
// experiments reproduce is the paper's *shape*: who wins, by what rough
// factor, and where the crossovers fall.
package harness

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"iosnap/internal/sim"
)

// RunConfig controls experiment scale and output.
type RunConfig struct {
	// Scale multiplies data volumes; 1.0 is the default scaled-down-from-
	// paper size, smaller is quicker.
	Scale float64
	// Out receives progress lines (nil = quiet).
	Out io.Writer
}

func (rc RunConfig) scale() float64 {
	if rc.Scale <= 0 {
		return 1.0
	}
	return rc.Scale
}

func (rc RunConfig) logf(format string, args ...any) {
	if rc.Out != nil {
		fmt.Fprintf(rc.Out, format+"\n", args...)
	}
}

// Table is one rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Series is one figure line: (x, y) points with axis labels.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Report is an experiment's output.
type Report struct {
	ID     string
	Title  string
	Paper  string // what the paper's version of this artifact shows
	Tables []Table
	Series []Series
	Notes  []string
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string
	Run   func(rc RunConfig) (*Report, error)
}

// registry holds all experiments.
var registry []Experiment

// canonicalOrder lists experiment ids in the paper's presentation order.
var canonicalOrder = []string{
	"table2", "createdelete", "fig7", "fig8", "table3", "fig9", "table4", "fig10", "fig11", "fig12",
}

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in the paper's order; experiments
// not in the canonical list follow in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	seen := make(map[string]bool)
	for _, id := range canonicalOrder {
		if e, ok := Lookup(id); ok {
			out = append(out, e)
			seen[id] = true
		}
	}
	for _, e := range registry {
		if !seen[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the registered experiment ids in canonical order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// Render writes a report as aligned text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", r.Paper)
	}
	for i := range r.Tables {
		fmt.Fprintln(w)
		r.Tables[i].render(w)
	}
	for i := range r.Series {
		fmt.Fprintln(w)
		r.Series[i].render(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func (t *Table) render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "-- %s --\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
}

// render prints a compact summary and an ASCII sparkline of the series.
func (s *Series) render(w io.Writer) {
	fmt.Fprintf(w, "-- series: %s (%s vs %s, %d points) --\n", s.Name, s.YLabel, s.XLabel, len(s.Y))
	if len(s.Y) == 0 {
		return
	}
	min, max := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	fmt.Fprintf(w, "   min=%.3g max=%.3g median=%.3g\n", min, max, median(s.Y))
	fmt.Fprintf(w, "   %s\n", sparkline(s.Y, 80))
}

func median(ys []float64) float64 {
	s := append([]float64(nil), ys...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// sparkline bins ys into width buckets and renders bucket maxima with
// eight-level block characters — enough to see spikes and trends in a
// terminal.
func sparkline(ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	if width > len(ys) {
		width = len(ys)
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	min, max := ys[0], ys[0]
	for _, y := range ys {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	span := max - min
	var b strings.Builder
	for i := 0; i < width; i++ {
		lo := i * len(ys) / width
		hi := (i + 1) * len(ys) / width
		if hi <= lo {
			hi = lo + 1
		}
		bucket := ys[lo]
		for _, y := range ys[lo:hi] {
			if y > bucket {
				bucket = y
			}
		}
		lvl := 0
		if span > 0 {
			lvl = int((bucket - min) / span * float64(len(levels)-1))
		}
		b.WriteRune(levels[lvl])
	}
	return b.String()
}

// WriteCSV dumps every table and series of the report as CSV sections. It
// returns the first write error: the CSVs are a refactoring oracle, and a
// short file must not pass for a result.
func (r *Report) WriteCSV(out io.Writer) error {
	w := bufio.NewWriter(out) // its error is sticky: Flush reports any failed write
	for _, t := range r.Tables {
		fmt.Fprintf(w, "# table,%s,%s\n", r.ID, csvEscape(t.Title))
		fmt.Fprintln(w, strings.Join(mapSlice(t.Header, csvEscape), ","))
		for _, row := range t.Rows {
			fmt.Fprintln(w, strings.Join(mapSlice(row, csvEscape), ","))
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "# series,%s,%s\n", r.ID, csvEscape(s.Name))
		fmt.Fprintf(w, "%s,%s\n", csvEscape(s.XLabel), csvEscape(s.YLabel))
		for i := range s.X {
			fmt.Fprintf(w, "%g,%g\n", s.X[i], s.Y[i])
		}
	}
	return w.Flush()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func mapSlice(in []string, f func(string) string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = f(s)
	}
	return out
}

// seriesFromLatency converts a latency time series into a figure series in
// (seconds, microseconds).
func seriesFromLatency(name string, pts []sim.SeriesPoint) Series {
	s := Series{Name: name, XLabel: "time (s)", YLabel: "latency (us)"}
	for _, p := range pts {
		s.X = append(s.X, sim.Duration(p.At).Seconds())
		s.Y = append(s.Y, p.Latency.Microseconds())
	}
	return s
}

// seriesFromBandwidth converts bandwidth windows into a figure series.
func seriesFromBandwidth(name string, pts []sim.BWPoint) Series {
	s := Series{Name: name, XLabel: "time (s)", YLabel: "MB/s"}
	for _, p := range pts {
		s.X = append(s.X, sim.Duration(p.At).Seconds())
		s.Y = append(s.Y, p.MBps)
	}
	return s
}

// fmtDur renders a duration with 3 significant figures for tables.
func fmtDur(d sim.Duration) string { return d.String() }

// fmtMBps renders throughput.
func fmtMBps(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtBytes renders a byte count human-readably.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
