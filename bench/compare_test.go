package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeDirectionAndBound(t *testing.T) {
	lower := metricDef{name: "lat", unit: "us", better: "lower", bound: 0.10}
	higher := metricDef{name: "tput", unit: "ops/s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		name   string
		def    metricDef
		a, b   []float64
		status string
	}{
		{"lower gets slower", lower, []float64{100}, []float64{120}, "REGRESSED"},
		{"lower gets faster", lower, []float64{100}, []float64{50}, "ok"},
		{"higher drops", higher, []float64{100}, []float64{80}, "REGRESSED"},
		{"higher rises", higher, []float64{100}, []float64{200}, "ok"},
		{"exactly at the bound", lower, []float64{100}, []float64{110}, "ok"},
		{"just beyond the bound", lower, []float64{100}, []float64{110.001}, "REGRESSED"},
		{"higher exactly at the bound", higher, []float64{100}, []float64{90}, "ok"},
		{"one outlier in three runs", lower, []float64{100, 100, 1000}, []float64{100, 100, 100}, "unresolved"},
		{"baseline too noisy to tell", lower, []float64{80, 100, 120, 140}, []float64{200, 200, 200, 200}, "unresolved"},
		{"candidate too noisy to tell", lower, []float64{100, 100, 100, 100}, []float64{80, 100, 120, 140}, "unresolved"},
		{"quiet sides, real regression", lower, []float64{99, 100, 101, 100}, []float64{119, 120, 121, 120}, "REGRESSED"},
		{"zero baseline", lower, []float64{0}, []float64{5}, "zero baseline"},
	} {
		v := judge(c.def, c.a, c.b)
		if v.status != c.status {
			t.Errorf("%s: %s (worse %.4f, spreads %.3f %.3f), want %s", c.name, v.status, v.worse, v.spreadA, v.spreadB, c.status)
		}
		if v.failed() != (c.status == "REGRESSED" || c.status == "zero baseline") {
			t.Errorf("%s: failed() = %v", c.name, v.failed())
		}
	}
	if v := judge(higher, []float64{100}, []float64{80}); v.worse < 0.1999 || v.worse > 0.2001 {
		t.Errorf("a fifth fewer ops/s is worse by %.4f", v.worse)
	}
}

// fullRecord is a run that reports every end-to-end metric at value v.
func fullRecord(workload string, trace int, v float64) record {
	r := record{Workload: workload, Trace: trace, Correct: true, Attempted: 1, Metrics: map[string]metricValue{}, Host: hostFacts{SpinMs: []float64{1, 1}}}
	for _, d := range r.defs() {
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

func TestCompareFailsOnAnythingMissing(t *testing.T) {
	base := []record{fullRecord("w1", 0, 10), fullRecord("w2", 0, 10)}
	same := []record{fullRecord("w1", 0, 10), fullRecord("w2", 0, 10)}
	var out bytes.Buffer
	if n := compareRecords(base, same, &out); n != 0 {
		t.Fatalf("identical sides: %d failures\n%s", n, out.String())
	}
	if rows := strings.Count(out.String(), " ok\n"); rows != 2*len(endToEnd) {
		t.Errorf("%d ok rows, want one per workload and metric (%d)", rows, 2*len(endToEnd))
	}

	// A workload one side lacks is a failure in either direction.
	for _, c := range [][2][]record{{base, same[:1]}, {base[:1], same}} {
		out.Reset()
		if n := compareRecords(c[0], c[1], &out); n != 1 || !strings.Contains(out.String(), "MISSING") {
			t.Errorf("missing workload: %d failures\n%s", n, out.String())
		}
	}

	// So is a metric one run lacks.
	holed := fullRecord("w1", 0, 10)
	delete(holed.Metrics, "mount_s")
	for _, c := range [][2][]record{{base[:1], {holed}}, {{holed}, same[:1]}} {
		out.Reset()
		if n := compareRecords(c[0], c[1], &out); n != 1 || !strings.Contains(out.String(), "mount_s") {
			t.Errorf("missing metric: %d failures\n%s", n, out.String())
		}
	}

	// A traced run on one side only is missing too; on both sides it is shown.
	out.Reset()
	if n := compareRecords(append(base[:1:1], fullRecord("w1", 1, 3)), same[:1], &out); n != 1 {
		t.Errorf("traced run on one side: %d failures\n%s", n, out.String())
	}
	out.Reset()
	if n := compareRecords(append(base[:1:1], fullRecord("w1", 1, 3)), append(same[:1:1], fullRecord("w1", 1, 4)), &out); n != 0 || !strings.Contains(out.String(), "srv.read_ns") {
		t.Errorf("traced run on both sides: %d failures\n%s", n, out.String())
	}

	// A run that failed its own verification fails the comparison.
	bad := fullRecord("w1", 0, 10)
	bad.Correct, bad.Failed = false, 3
	out.Reset()
	if n := compareRecords(base[:1], []record{bad}, &out); n != 1 || !strings.Contains(out.String(), "FAILED RUN") {
		t.Errorf("failed run: %d failures\n%s", n, out.String())
	}

	// And a regression on one metric of one workload is one failure.
	slow := fullRecord("w2", 0, 10)
	slow.Metrics["read_p50_us"] = metricValue{Value: 20, Unit: "us"}
	out.Reset()
	if n := compareRecords(base, []record{same[0], slow}, &out); n != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("regression: %d failures\n%s", n, out.String())
	}
}
