package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// A miniature of every workload runs all four phases, passes its own
// verification (every read, the remount sweep, the retained snapshots) and
// reports every metric of its table.
func TestMiniatureWorkloadsVerify(t *testing.T) {
	for i := range workloads {
		w := mini(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			rec, err := runWorkload(&w, miniGeometry, 1, refSeconds, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %s", rec.Failed, rec.Attempted, rec.FirstError)
			}
			for _, d := range endToEnd {
				if m := rec.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %g %s: an end-to-end metric is never 0", d.name, m.Value, m.Unit)
				}
			}
			line, err := rec.resultLine()
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := got[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(got) != 4 || strings.Contains(string(line), "\n") {
				t.Errorf("result line: %s", line)
			}
		})
	}
}

// Two traced runs with one seed agree to the last digit on every
// count-derived metric, and the workloads separate the layers as claimed.
func TestTracedRunRepeatsAndSeparatesLayers(t *testing.T) {
	for i := range workloads {
		w := mini(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*record
			for j := range runs {
				rec, err := runWorkload(&w, miniGeometry, 1, refSeconds, true, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct {
					t.Fatalf("%d of %d ops failed: %s", rec.Failed, rec.Attempted, rec.FirstError)
				}
				runs[j] = rec
			}
			for _, name := range countDerived {
				a, b := runs[0].Metrics[name], runs[1].Metrics[name]
				if a != b {
					t.Errorf("%s: %v then %v", name, a.Value, b.Value)
				}
			}
			m := runs[0].Metrics
			zero := func(names ...string) {
				for _, n := range names {
					if v, ok := m[n]; !ok || v.Value != 0 {
						t.Errorf("%s = %g on %s, want 0", n, v.Value, w.name)
					}
				}
			}
			positive := func(names ...string) {
				for _, n := range names {
					if m[n].Value <= 0 {
						t.Errorf("%s = %g on %s, want it at work", n, m[n].Value, w.name)
					}
				}
			}
			if w.mapCachePages == 0 {
				for _, d := range perLayer {
					if strings.HasPrefix(d.name, "mapcache.") {
						zero(d.name)
					}
				}
			} else {
				positive("mapcache.hit_ratio", "mapcache.misses_per_op", "mapcache.evictions", "mapcache.pages_flushed", "mapcache.wa_map", "mapcache.resident_mb")
			}
			if w.snapEvery == 0 {
				zero("srv.viewcache_hit_ratio", "srv.viewcache_misses", "srv.viewcache_invalidations", "iosnap.snapshot_activations",
					"srv.snap_create_p50_us", "srv.snap_read_p50_us", "iosnap.snap_create_virt_us", "bitmap.cow_page_copies")
			} else {
				positive("srv.viewcache_hit_ratio", "srv.viewcache_misses", "srv.viewcache_invalidations", "iosnap.snapshot_activations",
					"srv.snap_create_p50_us", "srv.snap_read_p50_us", "iosnap.snap_create_virt_us", "iosnap.snap_delete_virt_us",
					"iosnap.activate_virt_ms", "iosnap.activate_ns", "shard.activate_ns", "srv.snap_read_ns")
			}
			if w.writePct == 0 {
				zero("nand.qd16_page_programs", "iosnap.qd16_gc_runs", "nand.page_programs", "iosnap.gc_runs", "nand.write_amp", "nand.wa_total")
			} else {
				positive("nand.qd16_page_programs", "nand.write_amp", "srv.write_p50_us", "iosnap.gc_runs")
				// The split is exhaustive: one user sector plus the four causes.
				sum := 1 + m["iosnap.wa_gc"].Value + m["mapcache.wa_map"].Value + m["iosnap.wa_ckpt"].Value + m["iosnap.wa_other"].Value
				if d := sum - m["nand.wa_total"].Value; d < -1e-9 || d > 1e-9 {
					t.Errorf("write amplification by cause sums to %g, nand.wa_total is %g", sum, m["nand.wa_total"].Value)
				}
			}
			zero("iosnap.retries", "iosnap.media_failures", "iosnap.gc_errors", "iosnap.out_of_space_writes", "iosnap.checkpoint_errors")
			positive("nand.read_ns", "iosnap.read_ns", "shard.read_ns", "srv.read_ns", "srv.read_p99_us", "bench.trace_spans", "bench.trace_overhead_pct")
		})
	}
}
