package ftl

import (
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// TestCloseFailedCheckpointStillCloses pins the Close semantics fix: a
// checkpoint failure used to surface as a Close error and leave the
// device open (a second Close would try again instead of reporting
// ErrClosed). Close now matches iosnap: the error is recorded in
// CheckpointErrors, the device closes anyway, the clock reflects the
// partial attempt's NAND time, and recovery falls back to the full scan
// with all data intact.
func TestCloseFailedCheckpointStillCloses(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 64; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint's second chunk page (second distinct program target
	// after arming) fails for longer than the retry budget.
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 2, Times: 100,
	})
	plan.Arm(f.Device())
	done, err := f.Close(now)
	plan.Disarm(f.Device())
	if err != nil {
		t.Fatalf("Close must absorb checkpoint failures, got %v", err)
	}
	if done <= now {
		t.Fatalf("Close done %v does not reflect the partial checkpoint's time (entered at %v)", done, now)
	}
	st := f.Stats()
	if st.CheckpointErrors != 1 {
		t.Fatalf("CheckpointErrors = %d, want 1", st.CheckpointErrors)
	}
	if st.Checkpoints != 0 {
		t.Fatalf("aborted attempt must not commit, got %d checkpoints", st.Checkpoints)
	}
	if _, err := f.Write(done, 0, sectorPattern(ss, 0, 2)); err != ErrClosed {
		t.Fatalf("write after Close: got %v, want ErrClosed", err)
	}
	if _, err := f.Close(done); err != ErrClosed {
		t.Fatalf("second Close: got %v, want ErrClosed", err)
	}
	// The log remains the source of truth across the failed checkpoint.
	f2, rnow, err := Recover(testConfig(), f.Device(), nil, done)
	if err != nil {
		t.Fatalf("recovery after failed checkpoint close: %v", err)
	}
	if f2.Stats().RecoveryTailBounded {
		t.Fatal("recovery trusted an aborted checkpoint generation")
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 64; lba++ {
		if _, err := f2.Read(rnow, lba, buf); err != nil {
			t.Fatalf("read lba %d after recovery: %v", lba, err)
		}
		if string(buf) != string(sectorPattern(ss, lba, 1)) {
			t.Fatalf("lba %d corrupted after recovery", lba)
		}
	}
}

// TestCloseStartsNoBackgroundWork: the close-time checkpoint's chunks cross
// a segment boundary with the pool at the cleaning reserve — exactly when a
// head advance schedules a clean. Close used to leave that clean queued on a
// scheduler nobody runs again.
func TestCloseStartsNoBackgroundWork(t *testing.T) {
	nc := testConfig().Nand
	nc.PagesPerSegment, nc.Segments = 64, 16
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	for f.FreeSegments() > cfg.ReserveSegments {
		lba := rng.Int63n(f.Sectors())
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Scheduler().Drain(now)
	// Park the head two pages short of its segment's end, so the
	// checkpoint's first chunks cross into a fresh segment.
	for lba := int64(0); f.HeadIdx < nc.PagesPerSegment-2; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if f.CleaningActive() {
		t.Fatal("setup not quiescent")
	}
	head := f.HeadSeg
	if _, err := f.Close(now); err != nil {
		t.Fatal(err)
	}
	if f.HeadSeg == head {
		t.Fatal("checkpoint did not cross a segment boundary; nothing tested")
	}
	if f.CleaningActive() || f.Scheduler().Pending() != 0 {
		t.Fatalf("Close left cleaning=%v pending=%d", f.CleaningActive(), f.Scheduler().Pending())
	}
}

// TestCloseWithoutPayloadsProgramsNothing: a device that stores no payloads
// can never read a checkpoint back, so Close must not spend programs (and
// pinned pages) writing one.
func TestCloseWithoutPayloadsProgramsNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Nand.StoreData = false
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	now, err := f.Write(0, 5, sectorPattern(f.SectorSize(), 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := f.Device().Stats().PagePrograms
	if _, err := f.Close(now); err != nil {
		t.Fatal(err)
	}
	if after := f.Device().Stats().PagePrograms; after != before {
		t.Fatalf("Close programmed %d pages on a device that stores no payloads", after-before)
	}
	if st := f.Stats(); st.Checkpoints != 0 || st.CheckpointErrors != 0 {
		t.Fatalf("Close on a fingerprint-mode device: %d checkpoints, %d errors", st.Checkpoints, st.CheckpointErrors)
	}
	if f.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint scheduled a checkpoint no recovery could read")
	}
}
