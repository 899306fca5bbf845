package iosnap

import (
	"bytes"
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/sim"
)

func TestSnapshottedDataSurvivesHeavyCleaning(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	rng := sim.NewRNG(100)
	active := model.NewImage()
	for i := 0; i < 100; i++ {
		f.Sched.RunUntil(now)
		lba := rng.Int63n(60)
		v := uint64(i + 1)
		d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
		if err != nil {
			t.Fatal(err)
		}
		active.Write(lba, v)
		now = d
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	frozen := active.Fork()
	// Heavy churn: many segment cleanings move snapshot blocks repeatedly.
	for i := 0; i < 600; i++ {
		f.Sched.RunUntil(now)
		lba := rng.Int63n(60)
		d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, uint64(1000+i)))
		if err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		now = d
	}
	now = f.Sched.Drain(now)
	if f.Stats().GCRuns < 5 {
		t.Fatalf("only %d cleanings; test is weak", f.Stats().GCRuns)
	}
	view, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	verifyImage(t, "snapshot after cleaning", frozen, ss, view.Read, now)
}

func TestGCCopiesMoreWithSnapshots(t *testing.T) {
	// Snapshotted-but-overwritten blocks are extra copy-forward work; the
	// paper's Table 4 quantifies this as additional data movement.
	run := func(withSnap bool) int64 {
		f := newTestFTL(t)
		ss := f.SectorSize()
		now := sim.Time(0)
		rng := sim.NewRNG(9)
		for i := 0; i < 80; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(80)
			now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
		}
		if withSnap {
			_, d, err := f.CreateSnapshot(now)
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		for i := 0; i < 400; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(80)
			d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(2+i%10)))
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		f.Sched.Drain(now)
		return f.Stats().GCCopied
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Fatalf("GC with snapshot copied %d, without %d; snapshot should add movement", with, without)
	}
}

func TestEpochsPreservedAcrossMoves(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	now, _ = f.Write(now, 3, sectorPattern(ss, 3, 1))
	snap, now, _ := f.CreateSnapshot(now)
	// Force cleaning by churning unrelated LBAs.
	rng := sim.NewRNG(4)
	for i := 0; i < 500; i++ {
		f.Sched.RunUntil(now)
		lba := 10 + rng.Int63n(50)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	now = f.Sched.Drain(now)
	// The snapshot block was moved at least once; its epoch tag must have
	// moved with it so activation can still find it.
	view, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	if _, err := view.Read(now, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 3, 1)) {
		t.Fatal("snapshot block lost its identity across moves")
	}
}

func TestMergeTimeGrowsWithSnapshots(t *testing.T) {
	run := func(snaps int) sim.Duration {
		f := newTestFTL(t)
		ss := f.SectorSize()
		now := sim.Time(0)
		rng := sim.NewRNG(12)
		for s := 0; s <= snaps; s++ {
			for i := 0; i < 40; i++ {
				f.Sched.RunUntil(now)
				lba := rng.Int63n(60)
				d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i)))
				if err != nil {
					t.Fatal(err)
				}
				now = d
			}
			if s < snaps {
				_, d, err := f.CreateSnapshot(now)
				if err != nil {
					t.Fatal(err)
				}
				now = d
			}
		}
		for i := 0; i < 300; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(60)
			d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		f.Sched.Drain(now)
		st := f.Stats()
		if st.GCRuns == 0 {
			t.Fatal("no cleaning")
		}
		return st.GCMergeTime / sim.Duration(st.GCRuns)
	}
	m0 := run(0)
	m2 := run(2)
	if m2 <= m0 {
		t.Fatalf("per-clean merge time with 2 snapshots (%v) not above zero snapshots (%v)", m2, m0)
	}
}
