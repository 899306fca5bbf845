package iosnap_test

import (
	"bytes"
	"fmt"
	"log"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

// Create an ioSnap device, write data, take a snapshot, overwrite the data,
// and read the original back through an activated snapshot view: the
// paper's core promise.
func Example_quickstart() {
	// A small device with payload storage so we can verify contents.
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 256
	nc.Segments = 64
	nc.StoreData = true

	dev, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %d sectors x %d B (%.0f MB usable)\n",
		dev.Sectors(), dev.SectorSize(), float64(dev.Sectors()*4096)/(1<<20))

	// Write version 1 of a "document" at LBA 0.
	now := sim.Time(0)
	v1 := make([]byte, 4096)
	copy(v1, "important document, version 1")
	now, err = dev.Write(now, 0, v1)
	if err != nil {
		log.Fatal(err)
	}

	// Snapshot: one log note, tens of microseconds.
	before := now
	snap, now, err := dev.CreateSnapshot(now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot %d created in %v\n", snap.ID, now.Sub(before))

	// Oops: overwrite the document.
	v2 := make([]byte, 4096)
	copy(v2, "corrupted!!")
	if now, err = dev.Write(now, 0, v2); err != nil {
		log.Fatal(err)
	}

	buf := make([]byte, 4096)
	if now, err = dev.Read(now, 0, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("active device reads: %q\n", string(buf[:30]))

	// Activate the snapshot (deferred work happens here: log scan + map
	// reconstruction) and read the original.
	view, now, err := dev.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
	if err != nil {
		log.Fatal(err)
	}
	if now, err = view.Read(now, 0, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot %d reads:    %q\n", snap.ID, string(buf[:30]))
	fmt.Printf("snapshot map: %d entries in %d B\n", view.MappedSectors(), view.MapMemory())

	if _, err := view.Deactivate(now); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok: the overwrite never touched the snapshot")

	// Output:
	// device: 14336 sectors x 4096 B (56 MB usable)
	// snapshot 1 created in 42.30us
	// active device reads: "corrupted!!\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	// snapshot 1 reads:    "important document, version 1\x00"
	// snapshot map: 1 entries in 64 B
	// ok: the overwrite never touched the snapshot
}

// pattern is the content of lba in data generation version.
func pattern(lba int64, version byte) []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(lba) ^ version ^ byte(i)
	}
	return b
}

// Write data across several snapshots, "crash" without a clean shutdown,
// then run the paper's recovery (replaying the log's notes and data pages to
// rebuild the snapshot tree and the active forward map) and verify both the
// active state and an activated snapshot.
func Example_crashRecovery() {
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 128
	nc.Segments = 64
	nc.StoreData = true

	cfg := iosnap.DefaultConfig(nc)
	dev, err := iosnap.New(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Three generations of data with a snapshot after each.
	now := sim.Time(0)
	var snaps []*iosnap.Snapshot
	for gen := byte(1); gen <= 3; gen++ {
		for lba := int64(0); lba < 200; lba++ {
			dev.Scheduler().RunUntil(now)
			if now, err = dev.Write(now, lba, pattern(lba, gen)); err != nil {
				log.Fatal(err)
			}
		}
		snap, t, err := dev.CreateSnapshot(now)
		if err != nil {
			log.Fatal(err)
		}
		now = t
		snaps = append(snaps, snap)
		fmt.Printf("generation %d written, snapshot %d (epoch %d)\n", gen, snap.ID, snap.Epoch)
	}
	// More uncommitted writes after the last snapshot.
	for lba := int64(0); lba < 50; lba++ {
		dev.Scheduler().RunUntil(now)
		if now, err = dev.Write(now, lba, pattern(lba, 9)); err != nil {
			log.Fatal(err)
		}
	}

	// CRASH: no Close, no checkpoint. All host memory is gone; only the
	// NAND device survives.
	raw := dev.Device()
	fmt.Println("\n-- crash! recovering from the raw log --")

	rec, t, err := iosnap.Recover(cfg, raw, nil, now)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery scanned the log in %v (virtual)\n", t.Sub(now))
	now = t
	fmt.Printf("snapshot tree recovered: %d snapshots, active epoch %d\n",
		rec.Tree().Len(), rec.ActiveEpoch())

	// Verify the active state: LBAs 0..49 are generation 9, the rest 3.
	buf := make([]byte, 4096)
	for lba := int64(0); lba < 200; lba++ {
		want := byte(3)
		if lba < 50 {
			want = 9
		}
		if now, err = rec.Read(now, lba, buf); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, pattern(lba, want)) {
			log.Fatalf("active LBA %d corrupted after recovery", lba)
		}
	}
	fmt.Println("active state verified: uncommitted writes survived the crash")

	// Activate the middle snapshot and verify it shows generation 2.
	view, t2, err := rec.ActivateSync(now, snaps[1].ID, ratelimit.WorkSleep{}, false)
	if err != nil {
		log.Fatal(err)
	}
	now = t2
	for lba := int64(0); lba < 200; lba++ {
		if now, err = view.Read(now, lba, buf); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(buf, pattern(lba, 2)) {
			log.Fatalf("snapshot 2 LBA %d wrong after recovery", lba)
		}
	}
	fmt.Printf("snapshot %d verified post-crash: all 200 blocks show generation 2\n", snaps[1].ID)

	// Output:
	// generation 1 written, snapshot 1 (epoch 1)
	// generation 2 written, snapshot 2 (epoch 2)
	// generation 3 written, snapshot 3 (epoch 3)
	//
	// -- crash! recovering from the raw log --
	// recovery scanned the log in 2.56ms (virtual)
	// snapshot tree recovered: 3 snapshots, active epoch 4
	// active state verified: uncommitted writes survived the crash
	// snapshot 2 verified post-crash: all 200 blocks show generation 2
}

// Activate a snapshot while a latency-sensitive read workload runs, with
// and without the activation rate limiter: the trade-off of the paper's
// Figure 9.
func Example_rateLimiting() {
	configs := []struct {
		name  string
		limit ratelimit.WorkSleep
	}{
		{"unthrottled", ratelimit.WorkSleep{}},
		{"rate-limited", ratelimit.WorkSleep{Work: 100 * sim.Microsecond, Sleep: 2 * sim.Millisecond}},
	}
	for _, c := range configs {
		nc := nand.DefaultConfig()
		nc.SectorSize = 4096
		nc.PagesPerSegment = 256
		nc.Segments = 192

		dev, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
		if err != nil {
			log.Fatal(err)
		}
		sched := dev.Scheduler()

		// 128 MB of data, then a snapshot.
		spec := workload.Spec{
			Kind: workload.Write, Pattern: workload.Random,
			BlockSize: 4096, Threads: 2, QueueDepth: 16,
			TotalBytes: 128 << 20, Seed: 1, SubmitCost: sim.Microsecond,
		}
		_, now, err := workload.Run(dev, 0, spec, workload.Options{Scheduler: sched})
		if err != nil {
			log.Fatal(err)
		}
		snap, now, err := dev.CreateSnapshot(now)
		if err != nil {
			log.Fatal(err)
		}

		// Baseline read latency.
		base := sim.NewLatencyRecorder(0)
		readSpec := workload.Spec{
			Kind: workload.Read, Pattern: workload.Random,
			BlockSize: 4096, Threads: 1, QueueDepth: 1,
			MaxTime: now.Add(sim.Duration(200 * sim.Millisecond)), Seed: 2,
		}
		if _, now, err = workload.Run(dev, now, readSpec, workload.Options{Scheduler: sched, Latency: base}); err != nil {
			log.Fatal(err)
		}

		// Activate in the background while reads continue.
		actStart := now
		act, now, err := dev.Activate(now, snap.ID, c.limit, false)
		if err != nil {
			log.Fatal(err)
		}
		during := sim.NewLatencyRecorder(0)
		for !act.Ready() {
			slice := readSpec
			slice.MaxTime = now.Add(sim.Duration(20 * sim.Millisecond))
			slice.Seed = uint64(now)
			if _, now, err = workload.Run(dev, now, slice, workload.Options{Scheduler: sched, Latency: during}); err != nil {
				log.Fatal(err)
			}
		}
		view, err := act.View()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s activation took %8v | read latency: baseline mean %v, during mean %v, during max %v\n",
			c.name+":", act.CompletedAt().Sub(actStart), base.Mean(), during.Mean(), during.Max())
		fmt.Printf("%-13s snapshot view holds %d translations\n", "", view.MappedSectors())
	}
	fmt.Println("\nthe limiter trades activation time for foreground latency (paper Fig. 9)")

	// Output:
	// unthrottled:  activation took  18.23ms | read latency: baseline mean 15.45us, during mean 27.93us, during max 624.98us
	//               snapshot view holds 22910 translations
	// rate-limited: activation took 384.36ms | read latency: baseline mean 15.45us, during mean 15.28us, during max 103.97us
	//               snapshot view holds 22910 translations
	//
	// the limiter trades activation time for foreground latency (paper Fig. 9)
}

// A database-like workload takes a snapshot every virtual "minute" and
// keeps only the last three: the high snapshot frequency the paper argues
// flash makes practical. Before a snapshot is rotated out it is replicated
// off-device. The first generation ships as a full image, every later one
// as an incremental delta against the previous generation (diffing the two
// frozen epoch maps, no activation needed), and each transfer ends with a
// hash verify of everything the manifest claims. Only then are old
// snapshots deleted and their blocks reclaimed. The volumes are small so
// the example runs in well under a second; the story is the same at any
// scale.
func Example_backupRotation() {
	const retain = 3

	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 256
	nc.Segments = 32    // 32 MB raw
	nc.StoreData = true // replication ships real payloads, not fingerprints

	dev, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
	if err != nil {
		log.Fatal(err)
	}
	sched := dev.Scheduler()

	// The replica tier: a second device the snapshots are shipped to. Any
	// iosnap.Replica (a block device that trims) works; an FTL keeps the
	// example self-contained.
	arch, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
	if err != nil {
		log.Fatal(err)
	}
	repl := &iosnap.Replicator{
		Src:    dev,
		Dst:    arch,
		Policy: retry.Policy{MaxAttempts: 4, Backoff: 100 * sim.Microsecond},
	}

	// The "database": zipf-skewed 4K updates over a 2 MB working set.
	region := int64(2 << 20 / 4096)
	now, err := workload.Fill(dev, 0, 128<<10, 0, region, sched)
	if err != nil {
		log.Fatal(err)
	}

	var (
		ring     []iosnap.SnapshotID
		lastRepl iosnap.SnapshotID // previous generation on the replica
	)
	for minute := 1; minute <= 8; minute++ {
		spec := workload.Spec{
			Kind: workload.Write, Pattern: workload.Zipf, ZipfS: 1.2,
			BlockSize: 4096, Threads: 2, QueueDepth: 8,
			SubmitCost: sim.Microsecond,
			RangeHi:    region, Seed: uint64(minute),
			MaxTime: now.Add(sim.Duration(5 * sim.Millisecond)), // 1 virtual "minute"
		}
		res, end, err := workload.Run(dev, now, spec, workload.Options{Scheduler: sched})
		if err != nil {
			log.Fatal(err)
		}
		now = end

		snap, end2, err := dev.CreateSnapshot(now)
		if err != nil {
			log.Fatal(err)
		}
		now = end2
		ring = append(ring, snap.ID)
		fmt.Printf("minute %d: %4.1f MB written, snapshot %d taken (%d live, free segments %d)\n",
			minute, float64(res.Bytes)/(1<<20), snap.ID, dev.Tree().Live(), dev.FreeSegments())

		// Ship this generation before anything older is rotated out. The
		// replicator diffs against lastRepl's frozen epoch (full image when
		// zero), retries damaged transfers, and verifies every shipped and
		// trimmed sector against the manifest hashes before committing.
		before := dev.Stats()
		start := now
		m, end3, err := repl.Replicate(now, snap.ID, lastRepl)
		if err != nil {
			log.Fatalf("replicate snapshot %d: %v", snap.ID, err)
		}
		now = arch.Scheduler().Drain(end3)
		after := dev.Stats()
		kind := "delta"
		if !m.IsDelta() {
			kind = "full"
		}
		fmt.Printf("          replicated as %s: %d sectors shipped (%d deduped, %d deletes), "+
			"%.1f MB over wire in %v virtual\n",
			kind, after.ExportChunks-before.ExportChunks,
			after.ExportDedupHits-before.ExportDedupHits, len(m.Deletes),
			float64(len(m.Writes)*nc.SectorSize)/(1<<20), now.Sub(start))
		lastRepl = snap.ID

		// Per-generation spot check: re-verify the committed generation
		// manifest after the replicator's own verify pass has run.
		if bad, _, err := iosnap.VerifyReplica(arch, now, repl.Generation()); err != nil {
			log.Fatal(err)
		} else if len(bad) > 0 {
			log.Fatalf("replica diverges at %d sectors (first: LBA %d)", len(bad), bad[0])
		}

		// Rotate: delete beyond the retention window, safe now that every
		// generation in the window has been verified off-device.
		for len(ring) > retain {
			victim := ring[0]
			ring = ring[1:]
			if now, err = dev.DeleteSnapshot(now, victim); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("          rotated out snapshot %d (archived)\n", victim)
		}
	}
	now = sched.Drain(now)

	st := dev.Stats()
	fmt.Printf("\nfinal: %d live snapshots, %d deleted; cleaner ran %d times, "+
		"write amplification %.2f, validity CoW pages %d\n",
		dev.Tree().Live(), st.SnapshotDeletes, st.GCRuns, st.WriteAmplify, st.CoWPageCopies)
	fmt.Printf("replication: %d sectors shipped total, %d deduped, %d retries, %d verify mismatches healed\n",
		st.ExportChunks, st.ExportDedupHits, st.ImportRetries, st.VerifyMismatches)
	fmt.Printf("snapshot metadata on flash: %d notes x 4 KB; map memory %.1f KB\n",
		st.SnapshotCreates+st.SnapshotDeletes, float64(st.MapMemory)/(1<<10))

	// Output:
	// minute 1:  7.8 MB written, snapshot 1 taken (1 live, free segments 22)
	//           replicated as full: 512 sectors shipped (0 deduped, 0 deletes), 2.0 MB over wire in 40.52ms virtual
	// minute 2:  7.8 MB written, snapshot 2 taken (2 live, free segments 14)
	//           replicated as delta: 277 sectors shipped (0 deduped, 0 deletes), 1.1 MB over wire in 28.71ms virtual
	// minute 3:  7.8 MB written, snapshot 3 taken (3 live, free segments 6)
	//           replicated as delta: 278 sectors shipped (0 deduped, 0 deletes), 1.1 MB over wire in 22.71ms virtual
	// minute 4:  4.1 MB written, snapshot 4 taken (4 live, free segments 3)
	//           replicated as delta: 191 sectors shipped (0 deduped, 0 deletes), 0.7 MB over wire in 16.21ms virtual
	//           rotated out snapshot 1 (archived)
	// minute 5:  1.7 MB written, snapshot 5 taken (4 live, free segments 3)
	//           replicated as delta: 127 sectors shipped (0 deduped, 0 deletes), 0.5 MB over wire in 11.07ms virtual
	//           rotated out snapshot 2 (archived)
	// minute 6:  1.9 MB written, snapshot 6 taken (4 live, free segments 3)
	//           replicated as delta: 115 sectors shipped (0 deduped, 0 deletes), 0.4 MB over wire in 10.35ms virtual
	//           rotated out snapshot 3 (archived)
	// minute 7:  2.0 MB written, snapshot 7 taken (4 live, free segments 3)
	//           replicated as delta: 118 sectors shipped (0 deduped, 0 deletes), 0.5 MB over wire in 10.72ms virtual
	//           rotated out snapshot 4 (archived)
	// minute 8:  2.0 MB written, snapshot 8 taken (4 live, free segments 3)
	//           replicated as delta: 126 sectors shipped (0 deduped, 0 deletes), 0.5 MB over wire in 11.39ms virtual
	//           rotated out snapshot 5 (archived)
	//
	// final: 3 live snapshots, 5 deleted; cleaner ran 9 times, write amplification 1.01, validity CoW pages 8
	// replication: 1744 sectors shipped total, 0 deduped, 0 retries, 0 verify mismatches healed
	// snapshot metadata on flash: 13 notes x 4 KB; map memory 18.2 KB
}
