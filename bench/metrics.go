package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric. Units virt_us and virt_ms are virtual time:
// what the modelled device would take, the paper's own currency; every other
// time is this host's wall clock. The tables below are the benchmark's contract:
// BENCHMARK.json repeats them (a test keeps the two in step) and
// bench/README.md explains each row.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median a metric may worsen by
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them, none is ever 0 and none repeats
// to the last digit — which is why write, snap-create and snap-read latency
// and write amplification, which only some workloads have, and virtual time
// per op, which a seeded device model repeats exactly, are per-layer metrics
// under srv., nand. and shard. instead, and why failures travel as
// attempted/failed beside the metrics.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"persist_s", "s", "lower", 0.25},
	{"mount_s", "s", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced run's output: the boundary ladder, the srv tails of
// the load run, and each layer's own counters.
var perLayer = []metricDef{
	// ladder: median wall time of one call at each boundary, serial replay
	{"nand.read_ns", "ns", "lower", 0},
	{"nand.write_ns", "ns", "lower", 0},
	{"nand.allocs_per_op", "count", "lower", 0},
	{"nand.bytes_per_op", "B", "lower", 0},
	{"nand.virt_us_per_op", "virt_us", "lower", 0},
	{"iosnap.read_ns", "ns", "lower", 0},
	{"iosnap.write_ns", "ns", "lower", 0},
	{"iosnap.read_self_ns", "ns", "lower", 0},
	{"iosnap.write_self_ns", "ns", "lower", 0},
	{"iosnap.allocs_per_op", "count", "lower", 0},
	{"iosnap.bytes_per_op", "B", "lower", 0},
	{"iosnap.virt_us_per_op", "virt_us", "lower", 0},
	{"shard.read_ns", "ns", "lower", 0},
	{"shard.write_ns", "ns", "lower", 0},
	{"shard.read_self_ns", "ns", "lower", 0},
	{"shard.write_self_ns", "ns", "lower", 0},
	{"shard.allocs_per_op", "count", "lower", 0},
	{"shard.bytes_per_op", "B", "lower", 0},
	{"srv.read_ns", "ns", "lower", 0},
	{"srv.write_ns", "ns", "lower", 0},
	{"srv.read_self_ns", "ns", "lower", 0},
	{"srv.write_self_ns", "ns", "lower", 0},
	{"srv.allocs_per_op", "count", "lower", 0},
	{"srv.bytes_per_op", "B", "lower", 0},
	// ladder, snapshot ops
	{"iosnap.snap_create_ns", "ns", "lower", 0},
	{"iosnap.snap_read_ns", "ns", "lower", 0},
	{"iosnap.activate_ns", "ns", "lower", 0},
	{"shard.snap_create_ns", "ns", "lower", 0},
	{"shard.snap_read_ns", "ns", "lower", 0},
	{"shard.activate_ns", "ns", "lower", 0},
	{"srv.snap_create_ns", "ns", "lower", 0},
	{"srv.snap_read_ns", "ns", "lower", 0},
	// srv, from the load run (client-side recording is always on)
	{"srv.write_p50_us", "us", "lower", 0},
	{"srv.snap_create_p50_us", "us", "lower", 0},
	{"srv.snap_read_p50_us", "us", "lower", 0},
	{"srv.read_p99_us", "us", "lower", 0},
	{"srv.write_p99_us", "us", "lower", 0},
	{"srv.snap_read_p99_us", "us", "lower", 0},
	{"srv.snap_create_p90_us", "us", "lower", 0},
	{"srv.cpu_util", "cores", "lower", 0},
	{"srv.viewcache_hit_ratio", "ratio", "higher", 0},
	{"srv.viewcache_misses", "count", "lower", 0},
	{"srv.viewcache_invalidations", "count", "lower", 0},
	{"shard.virt_us_per_op", "virt_us", "lower", 0},
	{"shard.virt_skew", "ratio", "lower", 0},
	{"nand.write_amp", "ratio", "lower", 0},
	{"nand.qd16_page_programs", "count", "lower", 0},
	{"iosnap.qd16_gc_runs", "count", "lower", 0},
	// iosnap cleaner, serial replay at the iosnap boundary
	{"iosnap.gc_runs", "count", "lower", 0},
	{"iosnap.gc_forced", "count", "lower", 0},
	{"iosnap.gc_copied_pages", "count", "lower", 0},
	{"iosnap.gc_erases", "count", "lower", 0},
	{"iosnap.gc_merge_virt_us", "virt_us", "lower", 0},
	{"iosnap.gc_total_virt_us", "virt_us", "lower", 0},
	{"iosnap.gc_cache_hit_ratio", "ratio", "higher", 0},
	{"iosnap.gc_cache_rebuild_pages", "count", "lower", 0},
	{"iosnap.gc_unpaced_quanta", "count", "lower", 0},
	// write amplification by cause: pages per user sector written
	{"nand.wa_total", "ratio", "lower", 0},
	{"iosnap.wa_gc", "ratio", "lower", 0},
	{"mapcache.wa_map", "ratio", "lower", 0},
	{"iosnap.wa_ckpt", "ratio", "lower", 0},
	{"iosnap.wa_other", "ratio", "lower", 0},
	// iosnap data path
	{"iosnap.batch_descents_per_op", "count", "lower", 0},
	{"iosnap.batch_nand_calls_per_op", "count", "lower", 0},
	{"iosnap.batch_pages_per_call", "count", "higher", 0},
	// iosnap snapshots
	{"iosnap.snap_create_virt_us", "virt_us", "lower", 0},
	{"iosnap.snap_delete_virt_us", "virt_us", "lower", 0},
	{"iosnap.activate_virt_ms", "virt_ms", "lower", 0},
	{"iosnap.snapshot_activations", "count", "lower", 0},
	{"bitmap.cow_page_copies", "count", "lower", 0},
	{"bitmap.validity_mb", "MiB", "lower", 0},
	// map cache and map memory
	{"mapcache.hit_ratio", "ratio", "higher", 0},
	{"mapcache.misses_per_op", "count", "lower", 0},
	{"mapcache.evictions", "count", "lower", 0},
	{"mapcache.pages_flushed", "count", "lower", 0},
	{"mapcache.resident_mb", "MiB", "lower", 0},
	{"ftlmap.map_mb", "MiB", "lower", 0},
	// nand
	{"nand.page_programs", "count", "lower", 0},
	{"nand.page_reads", "count", "lower", 0},
	{"nand.erases", "count", "lower", 0},
	// failed or retried work over the whole load run; all 0 today
	{"iosnap.retries", "count", "lower", 0},
	{"iosnap.media_failures", "count", "lower", 0},
	{"iosnap.gc_errors", "count", "lower", 0},
	{"iosnap.out_of_space_writes", "count", "lower", 0},
	{"iosnap.checkpoint_errors", "count", "lower", 0},
	// restart path, from the load run's restart phase
	{"iosnap.checkpoint_s", "s", "lower", 0},
	{"iosnap.checkpoint_chunks", "count", "lower", 0},
	{"nand.image_save_s", "s", "lower", 0},
	{"nand.image_mb", "MiB", "lower", 0},
	{"nand.image_bytes_per_live_byte", "ratio", "lower", 0},
	{"vfs.write_fsync_s", "s", "lower", 0},
	{"nand.image_load_s", "s", "lower", 0},
	{"iosnap.recover_s", "s", "lower", 0},
	{"iosnap.recover_tail_bounded", "ratio", "higher", 0},
	{"iosnap.recover_fallbacks", "count", "lower", 0},
	{"iosnap.recover_header_pages", "count", "lower", 0},
	{"iosnap.recover_virt_ms", "virt_ms", "lower", 0},
	// harness
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.trace_spans", "count", "lower", 0},
	{"bench.warmup_log_wraps", "ratio", "higher", 0},
}

// countDerived are the per-layer metrics that come from counters of the
// serial replay alone: no clock, no scheduler, so two runs with one seed
// agree to the last digit and a change may be judged on them as counts.
var countDerived = []string{
	"nand.virt_us_per_op", "iosnap.virt_us_per_op",
	"iosnap.gc_runs", "iosnap.gc_forced", "iosnap.gc_copied_pages", "iosnap.gc_erases",
	"iosnap.gc_merge_virt_us", "iosnap.gc_total_virt_us", "iosnap.gc_cache_hit_ratio",
	"iosnap.gc_cache_rebuild_pages", "iosnap.gc_unpaced_quanta",
	"nand.wa_total", "iosnap.wa_gc", "mapcache.wa_map", "iosnap.wa_ckpt", "iosnap.wa_other",
	"iosnap.batch_descents_per_op", "iosnap.batch_nand_calls_per_op", "iosnap.batch_pages_per_call",
	"iosnap.snap_create_virt_us", "iosnap.snap_delete_virt_us", "iosnap.activate_virt_ms",
	"iosnap.snapshot_activations", "bitmap.cow_page_copies", "bitmap.validity_mb",
	"mapcache.hit_ratio", "mapcache.misses_per_op", "mapcache.evictions", "mapcache.pages_flushed",
	"mapcache.resident_mb", "ftlmap.map_mb",
	"nand.page_programs", "nand.page_reads", "nand.erases",
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

// metricValue is one measured metric. N is the sample count behind a timing;
// Note says which percentile a tail metric settled for.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// record is one run of one workload: what -out appends and compare reads.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Trace      int                    `json:"trace"`
	Host       hostFacts              `json:"host"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	FirstError string                 `json:"first_error,omitempty"`
	PhaseS     map[string]float64     `json:"phase_s"` // how long each phase took, for sizing the op counts
	Metrics    map[string]metricValue `json:"metrics"`
}

func (r *record) defs() []metricDef {
	if r.Trace != 0 {
		return perLayer
	}
	return endToEnd
}

// set stores a metric of the run's own table; the unit comes from the table,
// so a name the table lacks is a bug in the benchmark.
func (r *record) set(name string, v float64, n int, note string) {
	def := findMetric(r.defs(), name)
	if def == nil {
		panic("bench: metric " + name + " is not in the table")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.unit, N: n, Note: note}
}

// complete reports the table's metrics the run did not produce.
func (r *record) complete() error {
	for _, d := range r.defs() {
		if _, ok := r.Metrics[d.name]; !ok {
			return fmt.Errorf("run produced no %s", d.name)
		}
	}
	return nil
}

// print writes every metric by name with its unit, in table order.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  %s  kernel %s  spin_ms %.2f before, %.2f after\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Kernel, r.Host.SpinMs[0], r.Host.SpinMs[len(r.Host.SpinMs)-1])
	fmt.Fprint(w, "phases:")
	for _, p := range []string{"setup", "qd16", "qd2", "restart", "ladder"} {
		if s, ok := r.PhaseS[p]; ok {
			fmt.Fprintf(w, "  %s %.2fs", p, s)
		}
	}
	fmt.Fprintln(w)
	for _, d := range r.defs() {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("  %-32s %16.4f %-6s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d", m.N)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  fail_ratio %g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstError)
	}
}

// resultLine is the one JSON object a run ends with: exactly these keys.
func (r *record) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(out)
}
