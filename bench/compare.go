package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare judges result file B against baseline A: per workload and
// end-to-end metric, the median of B's runs may be worse than the median of
// A's by at most the metric's bound. It is written in Go and unit-tested
// because its awk predecessor once passed a gate vacuously: anything missing
// from either side is a failure, never a skipped row.

type verdict struct {
	status           string // "ok", "REGRESSED", "unresolved" or "zero baseline"
	medA, medB       float64
	worse            float64 // share of A's median by which B is worse; negative = better
	spreadA, spreadB float64 // interquartile range over median of each side's own runs
}

func (v verdict) failed() bool { return v.status == "REGRESSED" || v.status == "zero baseline" }

// spread is the distance between the first and third quartile as a share of
// the median; 0 when a side has a single run and so no spread to show.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// judge applies def's direction and bound to the two sides' runs. A side
// whose own runs differ by more than the bound cannot show a change of that
// size either way, so the row is unresolved, not ok.
func judge(def metricDef, a, b []float64) verdict {
	v := verdict{medA: median(a), medB: median(b), spreadA: spread(a), spreadB: spread(b)}
	if v.medA == 0 {
		v.status = "zero baseline"
		return v
	}
	v.worse = (v.medB - v.medA) / v.medA
	if def.better == "higher" {
		v.worse = -v.worse
	}
	switch {
	case v.spreadA > def.bound || v.spreadB > def.bound:
		v.status = "unresolved"
	case v.worse > def.bound:
		v.status = "REGRESSED"
	default:
		v.status = "ok"
	}
	return v
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	return recs, nil
}

// values collects metric name from the records of one workload and mode. ok
// is false when there is no such record or any of them lacks the metric.
func values(recs []record, workload string, trace int, name string) (xs []float64, ok bool) {
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		m, has := r.Metrics[name]
		if !has {
			return nil, false
		}
		xs = append(xs, m.Value)
	}
	return xs, len(xs) > 0
}

func hasRuns(recs []record, workload string, trace int) bool {
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace {
			return true
		}
	}
	return false
}

// compareRecords prints one row per workload and metric and returns the
// number of failures: regressions, zero baselines, failed runs, and
// workloads or metrics that one side lacks.
func compareRecords(a, b []record, out io.Writer) (failures int) {
	seen := map[string]bool{}
	var names []string
	for _, r := range append(append([]record(nil), a...), b...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
		if !r.Correct {
			fmt.Fprintf(out, "FAILED RUN  %s seed %d: %d of %d ops failed (%s)\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.FirstError)
			failures++
		}
	}
	sort.Strings(names)

	fmt.Fprintf(out, "%-13s %-32s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, w := range names {
		if !hasRuns(a, w, 0) || !hasRuns(b, w, 0) {
			fmt.Fprintf(out, "%-13s MISSING: a side has no tracing-off run of this workload\n", w)
			failures++
			continue
		}
		for _, def := range endToEnd {
			xa, okA := values(a, w, 0, def.name)
			xb, okB := values(b, w, 0, def.name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-13s %-32s MISSING from a run\n", w, def.name)
				failures++
				continue
			}
			v := judge(def, xa, xb)
			if v.failed() {
				failures++
			}
			fmt.Fprintf(out, "%-13s %-32s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				w, def.name, v.medA, v.medB, v.worse*100, def.bound*100, v.spreadA*100, v.spreadB*100, v.status)
		}
		// Per-layer metrics have no bound: shown for the diff, never judged.
		// A traced run on one side only is still a missing workload.
		ta, tb := hasRuns(a, w, 1), hasRuns(b, w, 1)
		if ta != tb {
			fmt.Fprintf(out, "%-13s MISSING: only one side has a traced run of this workload\n", w)
			failures++
		}
		if !ta || !tb {
			continue
		}
		for _, def := range perLayer {
			xa, okA := values(a, w, 1, def.name)
			xb, okB := values(b, w, 1, def.name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-13s %-32s MISSING from a run\n", w, def.name)
				failures++
				continue
			}
			fmt.Fprintf(out, "%-13s %-32s %14.4f %14.4f\n", w, def.name, median(xa), median(xb))
		}
	}
	return failures
}

// printHosts shows where and how quietly each side ran, so that a noisy
// neighbour (a spin well above the other side's) is not read as a regression.
func printHosts(label string, recs []record, out io.Writer) {
	hosts := map[string]int{}
	var spins []float64
	for _, r := range recs {
		hosts[fmt.Sprintf("nproc %d  GOMAXPROCS %d  %s  kernel %s", r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Kernel)]++
		spins = append(spins, r.Host.SpinMs...)
	}
	sort.Float64s(spins)
	for h, n := range hosts {
		fmt.Fprintf(out, "%s: %d run(s) on %s\n", label, n, h)
	}
	if len(spins) > 0 {
		fmt.Fprintf(out, "%s: host.spin_ms min %.2f  median %.2f  max %.2f\n", label, spins[0], median(spins), spins[len(spins)-1])
	}
}

func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sides[i] = recs
	}
	printHosts("A", sides[0], out)
	printHosts("B", sides[1], out)
	if n := compareRecords(sides[0], sides[1], out); n > 0 {
		fmt.Fprintf(out, "compare: %d failure(s)\n", n)
		return 1
	}
	fmt.Fprintln(out, "compare: B is within every bound of A")
	return 0
}
