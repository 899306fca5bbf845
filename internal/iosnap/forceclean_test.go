package iosnap

import (
	"bytes"
	"testing"

	"iosnap/internal/sim"
)

func TestForceCleanTargetsSegment(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	// Fill two segments, overwrite half of the first's LBAs.
	for lba := int64(0); lba < 32; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	for lba := int64(0); lba < 8; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	target := f.UsedSegments()[0]
	if err := f.ForceClean(now, target); err != nil {
		t.Fatalf("ForceClean: %v", err)
	}
	if !f.CleaningActive() {
		t.Fatal("cleaning not active after ForceClean")
	}
	now = f.Sched.Drain(now)
	if f.CleaningActive() {
		t.Fatal("cleaning still active after drain")
	}
	if f.Device().ProgrammedInSegment(target) != 0 {
		t.Fatal("target segment not erased")
	}
	// Contents intact.
	buf := make([]byte, ss)
	for lba := int64(0); lba < 32; lba++ {
		want := byte(1)
		if lba < 8 {
			want = 2
		}
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, want)) {
			t.Fatalf("LBA %d wrong after forced clean", lba)
		}
	}
}

func TestForceCleanErrors(t *testing.T) {
	f := newTestFTL(t)
	now := sim.Time(0)
	now, _ = f.Write(now, 0, sectorPattern(f.SectorSize(), 0, 1))
	if err := f.ForceClean(now, f.HeadSeg); err == nil {
		t.Fatal("cleaning the log head accepted")
	}
	if err := f.ForceClean(now, -1); err == nil {
		t.Fatal("negative segment accepted")
	}
	if err := f.ForceClean(now, 999); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
	// A free (unused) segment is rejected.
	free := f.FreeSegs[0]
	if err := f.ForceClean(now, free); err == nil {
		t.Fatal("unused segment accepted")
	}
	// Two concurrent forced cleans are rejected.
	for lba := int64(0); lba < 40; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, 1))
	}
	target := f.UsedSegments()[0]
	if err := f.ForceClean(now, target); err != nil {
		t.Fatal(err)
	}
	if err := f.ForceClean(now, f.UsedSegments()[1]); err == nil {
		t.Fatal("second concurrent forced clean accepted")
	}
}

func TestForceCleanPreservesSnapshotBlocks(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 16; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite everything: segment 0 is now 100% invalid in the active
	// epoch but 100% valid in the snapshot.
	for lba := int64(0); lba < 16; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	target := f.UsedSegments()[0]
	if err := f.ForceClean(now, target); err != nil {
		t.Fatal(err)
	}
	now = f.Sched.Drain(now)
	view, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 16; lba++ {
		if _, err := view.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("snapshot block %d lost by forced clean", lba)
		}
	}
}

func TestCountValidHooksAgree(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 16; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	_, now, _ = f.CreateSnapshot(now)
	for lba := int64(0); lba < 8; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	total := f.cfg.Nand.TotalPages()
	active := f.vstore.CountValid(f.active.epoch, 0, total)
	merged := f.vstore.MergeRange(f.vstore.LiveEpochs(), 0, total).Count()
	// Active: 16 data + note. Merged additionally sees the 8 overwritten
	// originals pinned by the snapshot.
	if merged <= active {
		t.Fatalf("merged %d should exceed active %d with pinned blocks", merged, active)
	}
	if merged-active != 8 {
		t.Fatalf("pinned delta = %d, want 8", merged-active)
	}
}
