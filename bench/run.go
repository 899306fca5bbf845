package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/srv"
)

// setups is how many times a tracing-off run does phase 1; setup_s is their
// median and the last stack is the one the measured phases use.
const setups = 3

// runWorkload is one run: the load phases (setup, qd16, qd2, restart) and,
// when traced, the serial ladder. dir takes the image files while the restart
// phase lasts and the span log, spans-<workload>.jsonl.
func runWorkload(w *workload, g geometry, seed uint64, seconds int, traced bool, dir string) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Host: newHostFacts(), Metrics: map[string]metricValue{}, PhaseS: map[string]float64{}}
	if traced {
		rec.Trace = 1
	}
	rec.Host.SpinMs = append(rec.Host.SpinMs, spinMs())

	lr := &loadRun{w: w, g: g, seed: seed, seconds: seconds}
	n := setups
	if traced {
		n = 1 // setup_s is a tracing-off metric
	}
	var setupS []float64
	var wraps float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := lr.teardown(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if wraps, err = lr.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	for _, s := range setupS {
		rec.PhaseS["setup"] += s
	}

	qd16 := lr.mix("qd16", qdDepth, w.qd16Ops)
	qd2 := lr.mix("qd2", latDepth, w.qd2Ops)
	rec.PhaseS["qd16"], rec.PhaseS["qd2"] = qd16.elapsed.Seconds(), qd2.elapsed.Seconds()
	lr.trimSnapshots()
	served, err := lr.drivers[0].c.Stats() // the stats wire op: view-cache counters
	if err != nil {
		return nil, fmt.Errorf("stats op: %w", err)
	}
	final := lr.st.counters()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	t0 := time.Now()
	rs, err := lr.restart(dir, traced)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	rec.PhaseS["restart"] = time.Since(t0).Seconds()

	if !traced {
		rec.set("ops_per_s", float64(qd16.ops)/qd16.elapsed.Seconds(), int(qd16.ops), "")
		rec.set("cpu_us_per_op", us(qd16.cpu)/float64(qd16.ops), int(qd16.ops), "")
		rec.set("read_p50_us", medianNs(qd2.lat[kRead])/1e3, len(qd2.lat[kRead]), "")
		rec.set("persist_s", rs.persistS(), len(rs.saveS), "")
		rec.set("mount_s", rs.mountS(), len(rs.loadS), "")
		rec.set("live_heap_mb", mib(int64(ms.HeapAlloc)), 0, "")
		rec.set("setup_s", median(setupS), len(setupS), "")
	} else {
		loadMetrics(rec, w, &qd16, &qd2, served, final, &rs, wraps)
		t0 := time.Now()
		l := newLadder(w, g, seed)
		if err := l.run(rec); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		rec.PhaseS["ladder"] = time.Since(t0).Seconds()
		if err := l.writeSpans(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
		lr.tally.add(l.tally)
	}

	rec.Host.SpinMs = append(rec.Host.SpinMs, spinMs())
	rec.Attempted, rec.Failed, rec.FirstError = lr.tally.attempted, lr.tally.failed, lr.tally.firstErr
	rec.Correct = rec.Failed == 0
	return rec, rec.complete()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func mib(b int64) float64        { return float64(b) / (1 << 20) }

// ratio is a/b, and 0 where the workload gives the denominator nothing to
// count (no writes, no map cache, no snapshots).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadMetrics derives the per-layer metrics that come from the load run.
func loadMetrics(rec *record, w *workload, qd16, qd2 *phaseStats, served srv.ServerStats, final counters, rs *restartStats, wraps float64) {
	p50 := func(name string, xs []int64) { rec.set(name, medianNs(xs)/1e3, len(xs), "") }
	tail := func(name string, xs []int64, want float64) {
		if len(xs) == 0 {
			rec.set(name, 0, 0, "")
			return
		}
		v, used := tailPercentile(sortedCopy(xs), want)
		rec.set(name, float64(v)/1e3, len(xs), fmt.Sprintf("p%g", used))
	}
	p50("srv.write_p50_us", qd2.lat[kWrite])
	p50("srv.snap_create_p50_us", qd16.lat[kSnapCreate])
	p50("srv.snap_read_p50_us", qd2.lat[kSnapRead])
	tail("srv.read_p99_us", qd2.lat[kRead], 99)
	tail("srv.write_p99_us", qd2.lat[kWrite], 99)
	tail("srv.snap_read_p99_us", qd2.lat[kSnapRead], 99)
	tail("srv.snap_create_p90_us", qd16.lat[kSnapCreate], 90)
	rec.set("srv.cpu_util", qd16.cpu.Seconds()/qd16.elapsed.Seconds(), 0, "")
	rec.set("srv.viewcache_hit_ratio", ratio(float64(served.ViewCacheHits), float64(served.ViewCacheHits+served.ViewCacheMisses)), 0, "")
	rec.set("srv.viewcache_misses", float64(served.ViewCacheMisses), 0, "")
	rec.set("srv.viewcache_invalidations", float64(served.ViewCacheInvalidations), 0, "")

	lo, hi, sum := 0.0, 0.0, 0.0
	for i, a := range qd16.virtAdvance() {
		if i == 0 || a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
		sum += a
	}
	rec.set("shard.virt_us_per_op", sum/1e3/float64(qd16.ops), int(qd16.ops), "")
	rec.set("shard.virt_skew", ratio(hi-lo, hi), 0, "")

	devBytes := float64(qd16.after.dev.BytesWritten - qd16.before.dev.BytesWritten)
	rec.set("nand.write_amp", ratio(devBytes, float64(qd16.sectorsWritten)*float64(w.sectorSize)), 0, "")
	rec.set("nand.qd16_page_programs", float64(qd16.after.dev.PagePrograms-qd16.before.dev.PagePrograms), 0, "")
	var gcRuns int64
	var failed iosnap.Stats
	for i, s := range qd16.after.sum.PerShard {
		gcRuns += s.GCRuns - qd16.before.sum.PerShard[i].GCRuns
	}
	for _, s := range final.sum.PerShard {
		failed.Retries += s.Retries
		failed.MediaFailures += s.MediaFailures
		failed.GCErrors += s.GCErrors
		failed.OutOfSpaceWrites += s.OutOfSpaceWrites
		failed.CheckpointErrors += s.CheckpointErrors
	}
	rec.set("iosnap.qd16_gc_runs", float64(gcRuns), 0, "")
	rec.set("iosnap.retries", float64(failed.Retries), 0, "")
	rec.set("iosnap.media_failures", float64(failed.MediaFailures), 0, "")
	rec.set("iosnap.gc_errors", float64(failed.GCErrors), 0, "")
	rec.set("iosnap.out_of_space_writes", float64(failed.OutOfSpaceWrites), 0, "")
	rec.set("iosnap.checkpoint_errors", float64(failed.CheckpointErrors), 0, "")

	rec.set("iosnap.checkpoint_s", rs.closeS, 1, "")
	rec.set("iosnap.checkpoint_chunks", float64(rs.ckptChunks), 0, "")
	rec.set("nand.image_save_s", median(rs.saveS), len(rs.saveS), "")
	rec.set("nand.image_mb", mib(rs.imageBytes), 0, "")
	rec.set("nand.image_bytes_per_live_byte", ratio(float64(rs.imageBytes), float64(rs.liveBytes)), 0, "")
	rec.set("vfs.write_fsync_s", rs.fileS, 1, "")
	rec.set("nand.image_load_s", median(rs.loadS), len(rs.loadS), "")
	rec.set("iosnap.recover_s", median(rs.recoverS), len(rs.recoverS), "")
	var tailBounded, fallbacks, headerPages, virtNs float64
	for i, s := range rs.recovered.PerShard {
		if s.RecoveryTailBounded {
			tailBounded++
		}
		fallbacks += float64(s.RecoveryFallbacks)
		headerPages += float64(s.RecoveryHeaderPages)
		virtNs += float64(rs.recovered.Virtual[i])
	}
	shards := float64(len(rs.recovered.PerShard))
	rec.set("iosnap.recover_tail_bounded", tailBounded/shards, 0, "")
	rec.set("iosnap.recover_fallbacks", fallbacks, 0, "")
	rec.set("iosnap.recover_header_pages", headerPages, 0, "")
	rec.set("iosnap.recover_virt_ms", virtNs/shards/1e6, 0, "")
	rec.set("bench.warmup_log_wraps", wraps, 0, "")
}

// run replays the stream at every boundary, bottom up, and derives the
// ladder, the iosnap-boundary counters and the tracing overhead.
func (l *ladder) run(rec *record) error {
	var stats [nBoundaries]replayStats
	for b := bNand; b < nBoundaries; b++ {
		var err error
		if stats[b], err = l.boundary(b, rec); err != nil {
			return fmt.Errorf("%s boundary: %w", boundaryNames[b], err)
		}
	}
	d, recorded := l.durations()
	var med [nBoundaries][nKinds]float64
	for b := range d {
		for k := range d[b] {
			med[b][k] = medianNs(d[b][k])
		}
	}
	for b := bNand; b < nBoundaries; b++ {
		name := boundaryNames[b]
		ladderSet := func(k opKind, suffix string, v float64) {
			rec.set(name+"."+kindNames[k]+suffix, v, len(d[b][k]), "")
		}
		for _, k := range []opKind{kRead, kWrite} {
			ladderSet(k, "_ns", med[b][k])
			if b > bNand {
				// Self time: this boundary's median less the one below's.
				ladderSet(k, "_self_ns", med[b][k]-med[b-1][k])
			}
		}
		rec.set(name+".allocs_per_op", float64(stats[b].mallocs)/float64(stats[b].ops), stats[b].ops, "")
		rec.set(name+".bytes_per_op", float64(stats[b].bytes)/float64(stats[b].ops), stats[b].ops, "")
		if b > bNand {
			ladderSet(kSnapCreate, "_ns", med[b][kSnapCreate])
			ladderSet(kSnapRead, "_ns", med[b][kSnapRead])
		}
		if b == bIosnap || b == bShard {
			ladderSet(kActivate, "_ns", med[b][kActivate])
		}
	}
	// What recording costs, as a share of the round trip it is recorded
	// around. It is measured directly: two serial replays of one stream
	// differ by a fifth from run to run on a 2-CPU box, which would bury it.
	rec.set("bench.trace_overhead_pct", spanCostNs()/med[bSrv][kRead]*100, len(d[bSrv][kRead]), "")
	rec.set("bench.trace_spans", float64(recorded), 0, "")
	return nil
}

// boundary builds boundary b's target on a fresh device, prefills it, and
// replays the stream. At the nand and iosnap boundaries, where a single
// caller makes every counter repeat exactly, it also reads the layer's
// counters around the replay.
func (l *ladder) boundary(b boundary, rec *record) (rs replayStats, err error) {
	var t target
	switch b {
	case bNand:
		t = newNandTarget(l.w, l.g, l.lay)
	case bIosnap:
		t, err = newFTLTarget(l.w, l.g)
	case bShard:
		t, err = newSvcTarget(l.w, l.g)
	case bSrv:
		t, err = newSrvTarget(l.w, l.g)
	}
	if err != nil {
		return rs, err
	}
	m := newModel(0, l.lay)
	if err := l.prefill(t, m); err != nil {
		return rs, err
	}
	runtime.GC() // every replay starts from a collected heap

	// after derives the layer's metrics once the replay has run.
	after := func(replayStats) {}
	switch t := t.(type) {
	case *nandTarget:
		now0 := t.now
		after = func(rs replayStats) {
			rec.set("nand.virt_us_per_op", float64(t.now-now0)/1e3/float64(rs.ops), rs.ops, "")
		}
	case *ftlTarget:
		now0, s0, d0 := t.now, t.f.Stats(), t.f.Device().Stats()
		after = func(rs replayStats) {
			ftlMetrics(rec, t, float64(t.now-now0), rs.ops, s0, t.f.Stats(), d0, t.f.Device().Stats())
		}
	}
	if rs, err = l.replay(b, t, m); err != nil {
		return rs, err
	}
	after(rs)
	return rs, t.close()
}

// ftlMetrics derives the iosnap-boundary counters: deltas over the replay,
// prefill excluded.
func ftlMetrics(rec *record, t *ftlTarget, virtNs float64, ops int, s0, s1 iosnap.Stats, d0, d1 nand.Stats) {
	set := func(name string, v float64) { rec.set(name, v, 0, "") }
	d := func(a, b int64) float64 { return float64(b - a) }
	set("iosnap.virt_us_per_op", virtNs/1e3/float64(ops))

	set("iosnap.gc_runs", d(s0.GCRuns, s1.GCRuns))
	set("iosnap.gc_forced", d(s0.GCForced, s1.GCForced))
	set("iosnap.gc_copied_pages", d(s0.GCCopied, s1.GCCopied))
	set("iosnap.gc_erases", d(s0.GCErases, s1.GCErases))
	set("iosnap.gc_merge_virt_us", d(int64(s0.GCMergeTime), int64(s1.GCMergeTime))/1e3)
	set("iosnap.gc_total_virt_us", d(int64(s0.GCTotalTime), int64(s1.GCTotalTime))/1e3)
	set("iosnap.gc_cache_hit_ratio", ratio(d(s0.GCCacheHits, s1.GCCacheHits), d(s0.GCVictimSelects, s1.GCVictimSelects)))
	set("iosnap.gc_cache_rebuild_pages", d(s0.GCCacheRebuildPages, s1.GCCacheRebuildPages))
	set("iosnap.gc_unpaced_quanta", d(s0.GCUnpacedQuanta, s1.GCUnpacedQuanta))

	// Every page the device programmed is a user sector, a cleaner copy, a
	// translation page, a checkpoint chunk, or something else (notes);
	// today's Stats.WriteAmplify counts only the first two.
	user := d(s0.UserWrites, s1.UserWrites)
	programs := d(d0.PagePrograms, d1.PagePrograms)
	gc, mp, ck := d(s0.GCCopied, s1.GCCopied), d(s0.MapPagesFlushed, s1.MapPagesFlushed), d(s0.CheckpointChunks, s1.CheckpointChunks)
	set("nand.wa_total", ratio(programs, user))
	set("iosnap.wa_gc", ratio(gc, user))
	set("mapcache.wa_map", ratio(mp, user))
	set("iosnap.wa_ckpt", ratio(ck, user))
	set("iosnap.wa_other", ratio(programs-user-gc-mp-ck, user))

	calls := d(s0.BatchNandCalls, s1.BatchNandCalls)
	set("iosnap.batch_descents_per_op", d(s0.BatchDescents, s1.BatchDescents)/float64(ops))
	set("iosnap.batch_nand_calls_per_op", calls/float64(ops))
	set("iosnap.batch_pages_per_call", ratio(d(s0.BatchPages, s1.BatchPages), calls))

	set("iosnap.snap_create_virt_us", medianNs(t.virt[kSnapCreate])/1e3)
	set("iosnap.snap_delete_virt_us", medianNs(t.virt[kSnapDelete])/1e3)
	set("iosnap.activate_virt_ms", medianNs(t.virt[kActivate])/1e6)
	set("iosnap.snapshot_activations", d(s0.SnapshotActivations, s1.SnapshotActivations))
	set("bitmap.cow_page_copies", d(s0.CoWPageCopies, s1.CoWPageCopies))
	set("bitmap.validity_mb", mib(s1.ValidityMemory))

	hits, misses := d(s0.MapCacheHits, s1.MapCacheHits), d(s0.MapCacheMisses, s1.MapCacheMisses)
	set("mapcache.hit_ratio", ratio(hits, hits+misses))
	set("mapcache.misses_per_op", misses/float64(ops))
	set("mapcache.evictions", d(s0.MapCacheEvictions, s1.MapCacheEvictions))
	set("mapcache.pages_flushed", mp)
	resident := int64(0)
	if t.f.Config().MapCachePages != 0 {
		resident = s1.MapMemoryResident
	}
	set("mapcache.resident_mb", mib(resident))
	set("ftlmap.map_mb", mib(s1.MapMemory))

	set("nand.page_programs", programs)
	set("nand.page_reads", d(d0.PageReads, d1.PageReads))
	set("nand.erases", d(d0.Erases, d1.Erases))
}
