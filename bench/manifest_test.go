package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root repeats the tables in this package
// for the driver; this keeps the two in step and inside the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, op counts are sized for %d", m.RunSeconds, refSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, table has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the table", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, table has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			name(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %+v differs from the table's %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s: unit %q or direction %q malformed", g.Name, g.Unit, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, table has %g, limit is 0.25", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's limits", len(endToEnd), len(perLayer))
	}

	setup := findMetric(endToEnd, "setup_s")
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Fatalf("end_to_end must carry setup_s in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.bound > setup.bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
	for _, n := range countDerived {
		if findMetric(perLayer, n) == nil {
			t.Errorf("count-derived metric %s is not in the per-layer table", n)
		}
	}
}
