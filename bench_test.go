// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (§6) via the experiment harness, plus ablation benches
// for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports headline metrics via b.ReportMetric; the
// full rows/series print through `go run ./cmd/benchrunner`.
package main

import (
	"math"
	"strconv"
	"testing"
	"time"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/harness"
	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

// benchScale keeps experiment benches quick; benchrunner uses scale 1.0.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	rc := harness.RunConfig{Scale: benchScale}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(rc); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (regular ops, vanilla vs ioSnap).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkCreateDelete regenerates §6.2.1 (snapshot create/delete cost).
func BenchmarkCreateDelete(b *testing.B) { runExperiment(b, "createdelete") }

// BenchmarkFig7 regenerates Figure 7 (creation impact + validity CoW).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (activation latency).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable3 regenerates Table 3 (activation memory overheads).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig9 regenerates Figure 9 (reads during rate-limited activation).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable4 regenerates Table 4 (segment cleaning overheads).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig10 regenerates Figure 10 (cleaner pacing policies).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (create impact vs Btrfs-like).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (sustained bandwidth vs Btrfs-like).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// ---- Core-operation microbenchmarks (host CPU cost of the data path). ----

func benchNand() nand.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 1024
	nc.Segments = 128
	return nc
}

// BenchmarkWritePath measures the Go-side cost of one ioSnap 4K write.
func BenchmarkWritePath(b *testing.B) {
	f, err := iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	space := f.Sectors() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Scheduler().RunUntil(now)
		d, err := f.Write(now, rng.Int63n(space), buf)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
}

// BenchmarkReadPath measures the Go-side cost of one ioSnap 4K read.
func BenchmarkReadPath(b *testing.B) {
	f, err := iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	now, err := workload.Fill(f, 0, 128<<10, 0, 4096, f.Scheduler())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Read(now, rng.Int63n(4096), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotCreate measures snapshot creation cost (host side).
// The FTL is re-created every 128 snapshots so a long benchtime doesn't
// accumulate an unrealistic number of live epochs.
func BenchmarkSnapshotCreate(b *testing.B) {
	var f *iosnap.FTL
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%128 == 0 {
			b.StopTimer()
			var err error
			f, err = iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
			if err != nil {
				b.Fatal(err)
			}
			now = 0
			b.StartTimer()
		}
		_, d, err := f.CreateSnapshot(now)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
}

// BenchmarkActivation measures end-to-end activation of a 64 MB snapshot.
func BenchmarkActivation(b *testing.B) {
	f, err := iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{
		Kind: workload.Write, Pattern: workload.Random,
		BlockSize: 4096, Threads: 2, QueueDepth: 16,
		TotalBytes: 64 << 20, Seed: 1, SubmitCost: sim.Microsecond,
	}
	_, now, err := workload.Run(f, 0, spec, workload.Options{Scheduler: f.Scheduler()})
	if err != nil {
		b.Fatal(err)
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, d, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
		if err != nil {
			b.Fatal(err)
		}
		now = d
		if _, err := view.Deactivate(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleanAfterSnapshotHistory measures what a forced clean costs per
// moved block on devices that differ only in how many snapshots have come
// and gone: N create → activate → deactivate → delete cycles, then the same
// four live snapshots. Each cycle's two dead epochs, the view's and the
// snapshot's, are reaped as they die (the snapshot's at the next create,
// which moves the active view off it), so the validity store ends holding the
// same epochs whatever N. The cleaner's per-block fix-up walks the live ones,
// so ns/moved-block must be flat in N (it grew with N while the fix-up
// enumerated every epoch ever created). Then the device is closed and
// mounted back: the checkpoint Close writes (ckpt-chunks) and the
// tail-bounded mount (recover-ns, the fastest of five) must be flat in N too,
// since no dead epoch is left to serialize. Printed, not gated: wall clock
// on a shared runner is noise.
func BenchmarkCleanAfterSnapshotHistory(b *testing.B) {
	for _, cycles := range []int{0, 100, 400} {
		b.Run("cycles-"+strconv.Itoa(cycles), func(b *testing.B) {
			nc := benchNand()
			nc.PagesPerSegment = 256
			nc.Segments = 64
			// Checkpoints need payloads; small sectors keep them to 8 MiB.
			nc.SectorSize = 512
			nc.StoreData = true
			cfg := iosnap.DefaultConfig(nc)
			cfg.GCWindow = 10 * sim.Millisecond
			f, err := iosnap.New(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, nc.SectorSize)
			rng := sim.NewRNG(1)
			space := f.Sectors() / 3
			now := sim.Time(0)
			write := func(n int) {
				for i := 0; i < n; i++ {
					f.Scheduler().RunUntil(now)
					if now, err = f.Write(now, rng.Int63n(space), buf); err != nil {
						b.Fatal(err)
					}
				}
			}
			write(2 * int(space))
			for c := 0; c < cycles; c++ {
				write(64)
				snap, d, err := f.CreateSnapshot(now)
				if err != nil {
					b.Fatal(err)
				}
				view, d, err := f.ActivateSync(d, snap.ID, ratelimit.WorkSleep{}, false)
				if err != nil {
					b.Fatal(err)
				}
				if d, err = view.Deactivate(d); err != nil {
					b.Fatal(err)
				}
				if now, err = f.DeleteSnapshot(d, snap.ID); err != nil {
					b.Fatal(err)
				}
			}
			for s := 0; s < 4; s++ {
				write(256)
				if _, now, err = f.CreateSnapshot(now); err != nil {
					b.Fatal(err)
				}
			}
			now = f.Scheduler().Drain(now)

			var moved int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, seg := range append([]int(nil), f.UsedSegs...) {
					if seg == f.HeadSeg || !f.SegInUse(seg) {
						continue
					}
					before := f.Stats().GCCopied
					if err := f.ForceClean(now, seg); err != nil {
						b.Fatal(err)
					}
					now = f.Scheduler().Drain(now)
					moved += f.Stats().GCCopied - before
				}
			}
			b.StopTimer()
			if moved == 0 {
				b.Fatal("forced cleans moved nothing")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/moved-block")
			b.ReportMetric(float64(moved)/float64(b.N), "moved-blocks/op")

			if now, err = f.Close(now); err != nil {
				b.Fatal(err)
			}
			fastest := time.Duration(math.MaxInt64)
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				r, _, err := iosnap.Recover(cfg, f.Device(), nil, now)
				if took := time.Since(t0); took < fastest {
					fastest = took
				}
				if err != nil || !r.Stats().RecoveryTailBounded {
					b.Fatalf("remount: tail-bounded %v, %v", err == nil && r.Stats().RecoveryTailBounded, err)
				}
			}
			b.ReportMetric(float64(f.Stats().CheckpointChunks), "ckpt-chunks")
			b.ReportMetric(float64(fastest.Nanoseconds()), "recover-ns")
		})
	}
}

// ---- Ablation benches (design choices from DESIGN.md §5). ----

// BenchmarkAblationBitmapCoW compares the paper's CoW validity maps with
// the naive full-copy-per-snapshot design it rejects (§5.4.1). Metrics:
// bytes of bitmap memory per snapshot.
func BenchmarkAblationBitmapCoW(b *testing.B) {
	// The paper's regime: the bitmap covers the whole device (2 TB there),
	// while writes between snapshots touch a small region (3 GB). The naive
	// design copies the whole bitmap per snapshot; CoW copies only the
	// touched pages.
	const nBits = 1 << 26 // 64M blocks = a 256 GB device at 4K
	const region = nBits / 64
	const snapshots = 16
	const touches = 4096 // blocks overwritten between snapshots

	b.Run("cow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := bitmap.NewStore(nBits, 0)
			s.CreateEpoch(1, bitmap.NoParent)
			rng := sim.NewRNG(7)
			cur := bitmap.Epoch(1)
			for sn := 0; sn < snapshots; sn++ {
				for t := 0; t < touches; t++ {
					s.Set(cur, rng.Int63n(region))
				}
				next := cur + 1
				s.CreateEpoch(next, cur)
				cur = next
			}
			b.ReportMetric(float64(s.MemoryBytes())/snapshots, "B/snapshot")
		}
	})
	b.Run("fullcopy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := sim.NewRNG(7)
			var maps []*bitmap.Bitmap
			cur := bitmap.New(nBits)
			var bytes int64
			for sn := 0; sn < snapshots; sn++ {
				for t := 0; t < touches; t++ {
					cur.Set(rng.Int63n(region))
				}
				frozen := cur.Clone() // the naive design: full copy per snapshot
				maps = append(maps, frozen)
				bytes += nBits / 8
			}
			_ = maps
			b.ReportMetric(float64(bytes)/snapshots, "B/snapshot")
		}
	})
}

// BenchmarkAblationBulkLoad quantifies the Table 3 effect: bulk-loaded
// trees vs organically grown trees with identical contents.
func BenchmarkAblationBulkLoad(b *testing.B) {
	const n = 1 << 18
	rng := sim.NewRNG(3)
	perm := rng.Perm(n)
	b.Run("grown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := ftlmap.New()
			for _, p := range perm {
				tr.Insert(uint64(p), uint64(p))
			}
			b.ReportMetric(float64(tr.MemoryBytes()), "B")
		}
	})
	b.Run("bulkloaded", func(b *testing.B) {
		entries := make([]ftlmap.Entry, n)
		for i := range entries {
			entries[i] = ftlmap.Entry{Key: uint64(i), Val: uint64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := ftlmap.BulkLoad(entries)
			b.ReportMetric(float64(tr.MemoryBytes()), "B")
		}
	})
}

// BenchmarkMergeRange measures the cleaner's validity merge (the Table 4
// overhead) across epoch counts.
func BenchmarkMergeRange(b *testing.B) {
	for _, epochs := range []int{1, 4, 16} {
		b.Run("epochs-"+strconv.Itoa(epochs), func(b *testing.B) {
			s := bitmap.NewStore(1<<20, 0)
			s.CreateEpoch(1, bitmap.NoParent)
			rng := sim.NewRNG(1)
			cur := bitmap.Epoch(1)
			for e := 1; e <= epochs; e++ {
				for t := 0; t < 4096; t++ {
					s.Set(cur, rng.Int63n(1<<20))
				}
				if e < epochs {
					s.CreateEpoch(cur+1, cur)
					cur++
				}
			}
			all := s.Epochs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MergeRange(all, 0, 1024)
			}
		})
	}
}

// BenchmarkAblationSelectiveScan quantifies the paper's §7 activation
// optimization: scan only lineage-bearing segments instead of the whole
// log. Reports virtual activation time for a small, old snapshot on a
// large log.
func BenchmarkAblationSelectiveScan(b *testing.B) {
	for _, selective := range []bool{false, true} {
		name := "full-scan"
		if selective {
			name = "selective-scan"
		}
		b.Run(name, func(b *testing.B) {
			nc := benchNand()
			nc.Segments = 512 // 2 GB log
			cfg := iosnap.DefaultConfig(nc)
			cfg.SelectiveScan = selective
			f, err := iosnap.New(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			// Small early snapshot, then a large unrelated log.
			now, err := workload.Fill(f, 0, 128<<10, 0, 4096, f.Scheduler())
			if err != nil {
				b.Fatal(err)
			}
			snap, now, err := f.CreateSnapshot(now)
			if err != nil {
				b.Fatal(err)
			}
			spec := workload.Spec{
				Kind: workload.Write, Pattern: workload.Random,
				BlockSize: 4096, Threads: 2, QueueDepth: 16,
				TotalBytes: 1 << 30, RangeLo: 8192, RangeHi: f.Sectors(),
				Seed: 3, SubmitCost: sim.Microsecond,
			}
			if _, now, err = workload.Run(f, now, spec, workload.Options{Scheduler: f.Scheduler()}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, done, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(done.Sub(now).Milliseconds(), "virtual-ms")
				now = done
				if _, err := view.Deactivate(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
