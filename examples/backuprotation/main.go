// Backup rotation: a database-like workload takes a snapshot every virtual
// minute and keeps only the last three — the high-snapshot-frequency usage
// the paper argues flash makes practical. Before a snapshot is rotated out
// it is replicated off-device: the first generation ships as a full image,
// every later one as an incremental delta against the previous generation
// (diffing the two frozen epoch maps — no activation needed), and each
// transfer ends with a hash verify of everything the manifest claims.
// Only then are old snapshots deleted and their blocks reclaimed.
package main

import (
	"fmt"
	"log"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

const retain = 3

func main() {
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 512
	nc.Segments = 256   // 512 MB raw
	nc.StoreData = true // replication ships real payloads, not fingerprints

	dev, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
	if err != nil {
		log.Fatal(err)
	}
	sched := dev.Scheduler()

	// The replica tier: a second device the snapshots are shipped to. Any
	// blockdev.Device works; an FTL keeps the demo self-contained.
	arch, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
	if err != nil {
		log.Fatal(err)
	}
	repl := &iosnap.Replicator{
		Src:    dev,
		Dst:    arch,
		Policy: retry.Policy{MaxAttempts: 4, Backoff: 100 * sim.Microsecond},
	}

	// The "database": zipf-skewed 4K updates over a 64 MB working set.
	region := int64(64 << 20 / 4096)
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
			MaxTime: now.Add(sim.Duration(1 * sim.Second)), // 1 virtual "minute"
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
		fmt.Printf("minute %d: %5.0f MB written, snapshot %d taken (%d live, free segments %d)\n",
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
			"%.0f MB over wire in %v virtual\n",
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

		// Rotate: delete beyond the retention window — safe now that every
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
	fmt.Printf("snapshot metadata on flash: %d notes x 4 KB; map memory %s\n",
		st.SnapshotCreates+st.SnapshotDeletes, fmtBytes(st.MapMemory))
}

func fmtBytes(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
}
