package iosnap

import (
	"testing"

	"iosnap/internal/sim"
)

// churnVictimState drives an FTL through writes, overwrites, trims, and
// snapshot create/delete churn, leaving a mix of fresh and stale accounting
// caches behind for the selection tests to chew on.
func churnVictimState(t *testing.T, f *FTL) sim.Time {
	t.Helper()
	ss := f.SectorSize()
	now := sim.Time(0)
	var snaps []SnapshotID
	for round := 0; round < 6; round++ {
		for lba := int64(0); lba < 60; lba++ {
			done, err := f.Write(now, lba, sectorPattern(ss, lba, byte(round+1)))
			if err != nil {
				t.Fatalf("round %d write lba %d: %v", round, lba, err)
			}
			now = done
			f.Sched.RunUntil(now)
		}
		if round%2 == 0 {
			s, done, err := f.CreateSnapshot(now)
			if err != nil {
				t.Fatalf("round %d snapshot: %v", round, err)
			}
			now = done
			snaps = append(snaps, s.ID)
		}
		if round == 3 && len(snaps) > 1 {
			done, err := f.DeleteSnapshot(now, snaps[0])
			if err != nil {
				t.Fatalf("delete snapshot %d: %v", snaps[0], err)
			}
			now = done
			snaps = snaps[1:]
		}
		if _, err := f.Trim(now, int64(10*round), 5); err != nil {
			t.Fatalf("round %d trim: %v", round, err)
		}
	}
	return f.Sched.Drain(now)
}

// TestSelectVictimMatchesScratch pins the tentpole's correctness bar: the
// heap/counter-based selection must choose the same victim, with the same
// merged-valid estimate, as a from-scratch merge over every used segment —
// with snapshot churn in the history.
func TestSelectVictimMatchesScratch(t *testing.T) {
	f := newTestFTL(t)
	now := churnVictimState(t, f)
	for i := 0; i < 4; i++ {
		gotSeg, _ := f.PickVictim()
		gotValid := 0
		if gotSeg >= 0 {
			gotValid = f.ValidCount(gotSeg) // the clean's work estimate
		}
		wantSeg, wantValid := f.selectVictimScratch()
		if gotSeg != wantSeg || gotValid != wantValid {
			t.Fatalf("pass %d: incremental selection (%d, %d) != scratch (%d, %d)",
				i, gotSeg, gotValid, wantSeg, wantValid)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		// Mutate between passes: more overwrites, another snapshot flip.
		for lba := int64(0); lba < 20; lba++ {
			done, werr := f.Write(now, lba, sectorPattern(f.SectorSize(), lba, byte(40+i)))
			if werr != nil {
				t.Fatalf("pass %d write: %v", i, werr)
			}
			now = done
		}
		if i == 1 {
			if _, done, serr := f.CreateSnapshot(now); serr == nil {
				now = done
			}
		}
		now = f.Sched.Drain(now)
	}
}

// TestSelectVictimMatchesScratchWithPins is the same bar with pinned pages
// in play: a one-page map cache keeps translation pages flowing to flash
// and checkpoints taken mid-churn pin their chunks, so segments differ in
// pinned count while victims are compared. The heap must order them by
// valid + pinned pages — what the scratch reference subtracts — and
// CheckInvariants recounts every segment's pins against the heap's.
func TestSelectVictimMatchesScratchWithPins(t *testing.T) {
	const space = 180 // three translation pages or more, for a one-page cache
	cfg := testConfig()
	cfg.MapCachePages = 1
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	rng := sim.NewRNG(5)
	churn := func(round, writes int) {
		for i := 0; i < writes; i++ {
			lba := rng.Int63n(space)
			done, err := f.Write(now, lba, sectorPattern(ss, lba, byte(round+1)))
			if err != nil {
				t.Fatalf("round %d write lba %d: %v", round, lba, err)
			}
			now = done
			f.Sched.RunUntil(now)
		}
	}
	sawPins := 0
	for round := 0; round < 10; round++ {
		churn(round, 120)
		if round%3 == 1 {
			f.StartCheckpoint(now)
		}
		churn(round, 40) // some of it lands while the checkpoint programs
		now = f.Sched.Drain(now)
		pinnedSegs := 0
		for _, seg := range f.UsedSegs {
			if f.PinnedInSeg(seg) > 0 {
				pinnedSegs++
			}
		}
		if len(f.CkptPins) > 0 && len(f.MapPins) > 0 && pinnedSegs > 1 {
			sawPins++
		}
		gotSeg, _ := f.PickVictim()
		gotValid := 0
		if gotSeg >= 0 {
			gotValid = f.ValidCount(gotSeg)
		}
		wantSeg, wantValid := f.selectVictimScratch()
		if gotSeg != wantSeg || gotValid != wantValid {
			t.Fatalf("round %d: incremental selection (%d, %d) != scratch (%d, %d)",
				round, gotSeg, gotValid, wantSeg, wantValid)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if sawPins < 5 {
		t.Fatalf("pins spread over segments in only %d of 10 comparisons", sawPins)
	}
}

// TestSelectVictimNeverFullyValid pins the zero-merged-invalid fix: a
// segment with nothing reclaimable must never be chosen, even when other
// segments make "any invalid exists" true.
func TestSelectVictimNeverFullyValid(t *testing.T) {
	f := newTestFTL(t)
	churnVictimState(t, f)
	victim, _ := f.PickVictim()
	if victim < 0 {
		t.Fatal("setup: churn left no victim")
	}
	pps := f.cfg.Nand.PagesPerSegment
	if mergedValid := f.ValidCount(victim); mergedValid >= pps {
		t.Fatalf("victim %d is fully merged-valid (%d/%d)", victim, mergedValid, pps)
	}
}

// TestTortureSnapshotChurn runs the snapshot-lifecycle storm mix: heavy
// create/delete/activate/deactivate traffic plus forced cleans and scrub
// passes, with the gcacct cross-check firing inside every CheckInvariants.
func TestTortureSnapshotChurn(t *testing.T) {
	for _, seed := range []uint64{2, 13, 77} {
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed:  seed,
			Steps: 900,
			Mix:   MixSnapshotChurn,
		})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if rep.Checks == 0 {
			t.Fatalf("seed %d: no invariant checks ran", seed)
		}
		if rep.FinalStats.GCCacheRebuilds == 0 {
			t.Fatalf("seed %d: churn run never rebuilt a cleaning cache (%s)", seed, rep)
		}
	}
}

// TestTortureSnapshotChurnDeterministic re-runs one churn seed and demands
// bit-identical accounting-visible outcomes: the incremental selection path
// must not introduce run-to-run nondeterminism.
func TestTortureSnapshotChurnDeterministic(t *testing.T) {
	run := func() Stats {
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed:  13,
			Steps: 900,
			Mix:   MixSnapshotChurn,
		})
		if err != nil {
			t.Fatalf("%v (%s)", err, rep)
		}
		return rep.FinalStats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("churn run not deterministic:\n run1: %+v\n run2: %+v", a, b)
	}
}
