package iosnap

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// TestTransientWriteRetriedInvisibly: a KindTransient program episode
// shorter than the retry budget must be absorbed entirely — the write
// succeeds, the retry is counted, and nothing is marked suspect.
func TestTransientWriteRetriedInvisibly(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 2, // budget is 3 attempts, so the episode clears
	})
	plan.Arm(f.Device())
	now, err := f.Write(0, 5, sectorPattern(ss, 5, 1))
	if err != nil {
		t.Fatalf("transient episode not absorbed: %v", err)
	}
	plan.Disarm(f.Device())

	st := f.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.MediaFailures != 0 || st.SegmentsSuspect != 0 {
		t.Fatalf("transient episode marked media suspect: %+v", st)
	}
	buf := make([]byte, ss)
	if _, err := f.Read(now, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 5, 1)) {
		t.Fatal("retried write lost its data")
	}
}

// TestExhaustedTransientMarksSuspect: an episode longer than the retry
// budget is a permanent failure — the error surfaces, the segment goes
// suspect, and the head seals onto healthy media so writes keep working.
func TestExhaustedTransientMarksSuspect(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 10, // outlasts the 3-attempt budget
	})
	plan.Arm(f.Device())
	if _, err := f.Write(0, 5, sectorPattern(ss, 5, 1)); !errors.Is(err, nand.ErrTransient) {
		t.Fatalf("exhausted transient: %v, want ErrTransient to surface", err)
	}
	plan.Disarm(f.Device())
	st := f.Stats()
	if st.MediaFailures != 1 || st.SegmentsSuspect != 1 {
		t.Fatalf("exhausted transient did not mark suspect: %+v", st)
	}
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 10; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatalf("write after seal: %v", err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDataRescuedOnRetirement: retiring a segment that holds blocks
// frozen ONLY in a snapshot (overwritten in the active view) must rescue
// them through the snapshot-aware merge — afterwards the snapshot still
// activates and serves its frozen content.
func TestSnapshotDataRescuedOnRetirement(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 30; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite everything: the v1 blocks now live only in the snapshot.
	for lba := int64(0); lba < 30; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)

	// Retire every non-head segment holding snapshot-only data.
	retired := 0
	for {
		victim := -1
		for _, seg := range f.UsedSegments() {
			if seg != f.HeadSeg && f.Dev.SegmentHealth(seg) == nand.Healthy {
				victim = seg
				break
			}
		}
		if victim < 0 || retired >= 2 {
			break
		}
		f.Dev.MarkSuspect(victim)
		if done, err := f.rescueSegment(now, victim); err != nil {
			t.Fatalf("rescue of segment %d: %v", victim, err)
		} else {
			now = done
		}
		if f.Dev.SegmentHealth(victim) != nand.Retired {
			t.Fatalf("segment %d not retired after rescue", victim)
		}
		retired++
	}
	if retired == 0 {
		t.Fatal("no segment rescued")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.RescuedPages == 0 || st.SegmentsRetired != retired {
		t.Fatalf("rescue not surfaced in stats: %+v", st)
	}

	// Active view intact.
	buf := make([]byte, ss)
	for lba := int64(0); lba < 30; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("active LBA %d: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 2)) {
			t.Fatalf("active LBA %d content lost", lba)
		}
	}
	// Snapshot intact: frozen v1 content survived the rescue.
	view, now, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < 30; lba++ {
		if _, err := view.Read(now, lba, buf); err != nil {
			t.Fatalf("snapshot LBA %d: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("snapshot LBA %d lost its frozen content", lba)
		}
	}
}

// TestScrubRescuesSuspectSegment: a scrub pass must find a suspect segment,
// rescue its data, retire it, and account for all of it in Stats.
func TestScrubRescuesSuspectSegment(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubLimit = ratelimit.WorkSleep{Work: 50 * sim.Microsecond, Sleep: 2 * sim.Millisecond}
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg {
			victim = seg
			break
		}
	}
	f.Dev.MarkSuspect(victim)
	if !f.StartScrub(now) {
		t.Fatal("scrub did not start")
	}
	if f.StartScrub(now) {
		t.Fatal("second concurrent scrub pass allowed")
	}
	now = f.Sched.Drain(now)

	if h := f.Dev.SegmentHealth(victim); h != nand.Retired {
		t.Fatalf("suspect segment health after scrub = %v, want retired", h)
	}
	st := f.Stats()
	if st.ScrubPasses != 1 || st.ScrubRescues != 1 || st.ScrubSegments == 0 {
		t.Fatalf("scrub accounting wrong: %+v", st)
	}
	if st.RescuedPages == 0 || st.SegmentsRetired != 1 {
		t.Fatalf("rescue accounting wrong: %+v", st)
	}
	if st.ScrubLastAt == 0 {
		t.Fatal("ScrubLastAt not stamped")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 40; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("LBA %d unreadable after scrub rescue: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("LBA %d content lost in scrub rescue", lba)
		}
	}
}

// TestScrubIntervalArmsAutomatically: with ScrubInterval set, rolling the
// log head past the interval arms a pass without any explicit StartScrub.
func TestScrubIntervalArmsAutomatically(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubInterval = 50 * sim.Microsecond
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 100; lba++ {
		if now, err = f.Write(now, lba%50, sectorPattern(ss, lba, byte(lba%7+1))); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)
	if st := f.Stats(); st.ScrubPasses == 0 {
		t.Fatalf("interval scrubbing never ran: %+v", st)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfSpaceDegradationWithSnapshot: a snapshot pinning every block
// drives the device into graceful out-of-space degradation — writes shed
// with ErrOutOfSpace, reads keep working, trims alone cannot recover (the
// snapshot still pins the blocks), but deleting the snapshot while degraded
// works (space-freeing notes bypass the rescue reserve) and writes resume.
func TestOutOfSpaceDegradationWithSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.UserSectors = int64(cfg.Nand.Segments-1) * int64(cfg.Nand.PagesPerSegment)
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	// Phase 1: fill a third, freeze it in a snapshot.
	third := f.Sectors() / 3
	for lba := int64(0); lba < third; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 2: keep filling unique LBAs until the device degrades.
	sawShed := false
	written := third
	for lba := third; lba < f.Sectors(); lba++ {
		_, werr := f.Write(now, lba, sectorPattern(ss, lba, 1))
		if errors.Is(werr, ErrOutOfSpace) {
			if !strings.HasSuffix(werr.Error(), "; 1 live snapshots, 0 views") || !strings.Contains(werr.Error(), "free segments") {
				t.Fatalf("the out-of-space error does not say why: %v", werr)
			}
			sawShed = true
			break
		}
		if werr != nil {
			t.Fatalf("LBA %d: %v", lba, werr)
		}
		written++
	}
	if !sawShed {
		t.Fatal("never saw ErrOutOfSpace filling the advertised capacity")
	}
	st := f.Stats()
	if !st.Degraded || st.OutOfSpaceWrites == 0 {
		t.Fatalf("degradation not surfaced: %+v", st)
	}
	// Reads still served while degraded.
	buf := make([]byte, ss)
	if _, err := f.Read(now, 0, buf); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 0, 1)) {
		t.Fatal("read while degraded returned wrong data")
	}
	// Trimming the snapshotted range frees nothing: the snapshot pins it.
	if now, err = f.Trim(now, 0, third); err != nil {
		t.Fatalf("trim while degraded: %v", err)
	}
	if _, werr := f.Write(now, 0, sectorPattern(ss, 0, 2)); !errors.Is(werr, ErrOutOfSpace) {
		t.Fatalf("write after trim of pinned blocks: %v, want still ErrOutOfSpace", werr)
	}
	// Deleting the snapshot while degraded must work — it is the only way
	// out — and unpins the trimmed blocks.
	if now, err = f.DeleteSnapshot(now, snap.ID); err != nil {
		t.Fatalf("snapshot delete while degraded: %v", err)
	}
	var werr error
	for i := 0; i < 4; i++ { // a few attempts: the first may trigger cleaning
		if now, werr = f.Write(now, 0, sectorPattern(ss, 0, 2)); werr == nil {
			break
		}
	}
	if werr != nil {
		t.Fatalf("writes did not recover after snapshot delete: %v", werr)
	}
	if st := f.Stats(); st.Degraded {
		t.Fatal("degraded flag stuck after recovery")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredSegmentSurvivesRecovery: retirement must hold across a crash,
// the retired segment staying out of both pools, while the active view AND
// the snapshot remain fully readable after recovery.
func TestRetiredSegmentSurvivesRecovery(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 30; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < 30; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg {
			victim = seg
			break
		}
	}
	f.Dev.MarkSuspect(victim)
	if now, err = f.rescueSegment(now, victim); err != nil {
		t.Fatal(err)
	}
	if f.Dev.SegmentHealth(victim) != nand.Retired {
		t.Fatal("setup: victim not retired")
	}

	// Crash (no Close) and recover on the same device.
	f2, now, err := Recover(f.cfg, f.Dev, nil, now)
	if err != nil {
		t.Fatalf("recovery with retired segment: %v", err)
	}
	pooled := append(f2.UsedSegments(), f2.FreeSegs...)
	sort.Ints(pooled)
	for _, s := range pooled {
		if s == victim {
			t.Fatal("retired segment re-pooled by recovery")
		}
	}
	if f2.HeadSeg == victim {
		t.Fatal("recovery resumed head on retired segment")
	}
	if err := f2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 30; lba++ {
		if _, err := f2.Read(now, lba, buf); err != nil {
			t.Fatalf("LBA %d unreadable after recovery: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 2)) {
			t.Fatalf("LBA %d content mismatch after recovery", lba)
		}
	}
	view, now, err := f2.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
	if err != nil {
		t.Fatalf("snapshot activation after recovery: %v", err)
	}
	for lba := int64(0); lba < 30; lba++ {
		if _, err := view.Read(now, lba, buf); err != nil {
			t.Fatalf("snapshot LBA %d after recovery: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("snapshot LBA %d content mismatch after recovery", lba)
		}
	}
}
