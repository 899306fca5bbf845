package ftl

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// The engine's media handling is tested in internal/logcore under
// flatPolicy. These tests drive each fault through the vanilla FTL and check
// what its policy owns: the data reads back through its map, and its flat
// validity bitmap still holds exactly one bit per mapping (checkValidity).

// checkValidity fails unless every mapped LBA's page is valid and readable
// and the bitmap holds no other bit.
func checkValidity(t *testing.T, f *FTL) {
	t.Helper()
	count := 0
	f.ActiveMap.All(func(lba, addr uint64) bool {
		count++
		if !f.validity.Test(int64(addr)) {
			t.Fatalf("LBA %d maps to invalid page %d", lba, addr)
		}
		if _, err := f.Dev.PageOOB(nand.PageAddr(addr)); err != nil {
			t.Fatalf("LBA %d page %d unreadable: %v", lba, addr, err)
		}
		return true
	})
	if got := f.validity.Count(); got != count {
		t.Fatalf("validity bits %d != mappings %d", got, count)
	}
}

// failFrom arms a transient fault on f's device that fails times op
// attempts from the n-th on; the retry budget is 3 attempts.
func failFrom(f *FTL, op nand.Op, n, times int64) {
	faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: op, Seg: faultinject.AnySeg, AfterN: n, Times: times,
	}).Arm(f.Device())
}

// TestTransientWriteRetriedInvisibly: a transient program episode shorter
// than the retry budget is absorbed — the write lands, two retries are
// counted, and nothing goes suspect.
func TestTransientWriteRetriedInvisibly(t *testing.T) {
	f := newTestFTL(t)
	failFrom(f, nand.OpProgram, 1, 2) // budget is 3 attempts, so the episode clears
	now := writeLBAs(t, f, 0, 5, 6, 1)
	f.Dev.SetFaultHook(nil)
	if st := f.Stats(); st.Retries != 2 || st.MediaFailures != 0 || st.SegmentsSuspect != 0 {
		t.Fatalf("transient episode not absorbed invisibly: %+v", st)
	}
	readLBAs(t, f, now, 5, 6, 1)
	checkValidity(t, f)
}

// TestTransientReadRetried: the same contract on the read path.
func TestTransientReadRetried(t *testing.T) {
	f := newTestFTL(t)
	now := writeLBAs(t, f, 0, 3, 4, 1)
	failFrom(f, nand.OpRead, 1, 1)
	readLBAs(t, f, now, 3, 4, 1)
	f.Dev.SetFaultHook(nil)
	if st := f.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

// writeFaultSealsHead fails the next program with rule: the error surfaces
// (as wantErr, if set), the head's segment goes suspect, and ten later writes
// land on healthy media without losing the one before the fault.
func writeFaultSealsHead(t *testing.T, rule faultinject.Rule, wantErr error) {
	t.Helper()
	f := newTestFTL(t)
	now := writeLBAs(t, f, 0, 1, 2, 1)
	plan := faultinject.NewPlan(0, rule)
	plan.Arm(f.Device())
	_, err := f.Write(now, 2, sectorPattern(f.SectorSize(), 2, 1))
	plan.Disarm(f.Device())
	if err == nil || (wantErr != nil && !errors.Is(err, wantErr)) {
		t.Fatalf("program fault surfaced as %v, want an error (%v)", err, wantErr)
	}
	if st := f.Stats(); st.MediaFailures != 1 || st.SegmentsSuspect != 1 {
		t.Fatalf("failed program did not mark the head suspect: %+v", st)
	}
	readLBAs(t, f, writeLBAs(t, f, now, 2, 12, 1), 1, 12, 1)
	checkValidity(t, f)
}

// TestExhaustedTransientMarksSuspect: a transient episode that outlasts the
// retry budget is a permanent failure.
func TestExhaustedTransientMarksSuspect(t *testing.T) {
	writeFaultSealsHead(t, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 10, // outlasts the 3-attempt budget
	}, nand.ErrTransient)
}

// TestWriteFaultDoesNotBrickLogHead: one failed foreground program leaves no
// hole at the sequential-program log head.
func TestWriteFaultDoesNotBrickLogHead(t *testing.T) {
	writeFaultSealsHead(t, faultinject.Rule{
		Kind: faultinject.KindError, Op: nand.OpProgram, Seg: faultinject.AnySeg, AfterN: 1,
	}, nil)
}

// cleanDyingVictim fills 40 LBAs, lets doom mark the first full segment as
// dying, and force-cleans it: the victim's data is rescued and it is
// retired, never pooled again.
func cleanDyingVictim(t *testing.T, doom func(f *FTL, victim int)) {
	t.Helper()
	f := newTestFTL(t)
	now := f.Sched.Drain(writeLBAs(t, f, 0, 0, 40, 1))
	victim := f.UsedSegments()[0]
	if victim == f.HeadSeg {
		t.Fatal("no victim outside the head")
	}
	doom(f, victim)
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatalf("clean of a dying victim must rescue and retire: %v", err)
	}
	now = f.Sched.Drain(now)
	f.Dev.SetFaultHook(nil)
	if h := f.Dev.SegmentHealth(victim); h != nand.Retired {
		t.Fatalf("victim health = %v, want retired", h)
	}
	if slices.Contains(append(f.UsedSegments(), f.FreeSegs...), victim) {
		t.Fatal("retired segment still pooled")
	}
	if st := f.Stats(); st.SegmentsRetired != 1 {
		t.Fatalf("SegmentsRetired = %d, want 1", st.SegmentsRetired)
	}
	readLBAs(t, f, now, 0, 40, 1)
	checkValidity(t, f)
}

// TestSuspectVictimRetiredAfterClean: a suspect victim is retired after its
// clean instead of returning to the free pool.
func TestSuspectVictimRetiredAfterClean(t *testing.T) {
	cleanDyingVictim(t, func(f *FTL, victim int) { f.Dev.MarkSuspect(victim) })
}

// TestPermanentEraseFailureRetiresVictim: wear-out at erase time retires the
// victim, whose data the clean already moved.
func TestPermanentEraseFailureRetiresVictim(t *testing.T) {
	cleanDyingVictim(t, func(f *FTL, victim int) {
		faultinject.NewPlan(0, faultinject.Rule{
			Kind: faultinject.KindError, Op: nand.OpErase, Seg: victim, AfterN: 1, Err: nand.ErrWornOut,
		}).Arm(f.Device())
	})
}

// TestOutOfSpaceDegradation: with nothing reclaimable and the pool at the
// reserve, writes shed with ErrOutOfSpace while reads and trims still work,
// and writes resume once a trim frees space.
func TestOutOfSpaceDegradation(t *testing.T) {
	cfg := testConfig()
	cfg.RescueReserve = 2
	// Advertise nearly the whole device, so unique live data must reach the
	// reserve with nothing reclaimable.
	cfg.UserSectors = int64(cfg.Nand.Segments-1) * int64(cfg.Nand.PagesPerSegment)
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now, written := sim.Time(0), int64(0)
	for ; written < f.Sectors(); written++ {
		done, werr := f.Write(f.Sched.Drain(now), written, sectorPattern(ss, written, 1))
		if errors.Is(werr, ErrOutOfSpace) {
			break
		} else if werr != nil {
			t.Fatalf("LBA %d: %v", written, werr)
		}
		now = done
	}
	if written == f.Sectors() {
		t.Fatal("never saw ErrOutOfSpace filling the advertised capacity")
	}
	if st := f.Stats(); !st.Degraded || st.OutOfSpaceWrites == 0 {
		t.Fatalf("degradation not surfaced: %+v", st)
	}
	readLBAs(t, f, now, 0, written, 1)
	if now, err = f.Trim(now, 0, written/2); err != nil {
		t.Fatalf("trim while degraded: %v", err)
	}
	werr := ErrOutOfSpace
	for i := 0; i < 4 && werr != nil; i++ { // a few attempts: the first may start a clean
		now, werr = f.Write(now, 0, sectorPattern(ss, 0, 2))
	}
	if werr != nil || f.Stats().Degraded {
		t.Fatalf("writes did not recover after trim (%v), or Degraded stuck: %+v", werr, f.Stats())
	}
	readLBAs(t, f, now, 0, 1, 2)
	checkValidity(t, f)
}

// TestGCErrorRecordedNotSwallowed: a device error during the cleaner's copy
// lands in Stats, the bitmap stays one bit per mapping across the abort,
// writes continue, and the victim is cleaned once the fault clears.
func TestGCErrorRecordedNotSwallowed(t *testing.T) {
	f := newTestFTL(t)
	now := writeLBAs(t, f, 0, 0, 40, 1)
	now = f.Sched.Drain(writeLBAs(t, f, now, 0, 20, 2))
	// A victim that still holds valid data, so the clean must copy.
	pps := int64(f.cfg.Nand.PagesPerSegment)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg && victim < 0 && f.validity.CountRange(int64(seg)*pps, int64(seg+1)*pps) > 0 {
			victim = seg
		}
	}
	if victim < 0 {
		t.Fatal("no cleanable victim with valid data")
	}
	faultinject.GCCopyError(1).Arm(f.Device())
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	now = f.Sched.Drain(now)
	f.Dev.SetFaultHook(nil)
	if st := f.Stats(); st.GCErrors != 1 || !strings.Contains(st.GCLastErr, "copy-forward") {
		t.Fatalf("copy error swallowed: GCErrors %d, GCLastErr %q", st.GCErrors, st.GCLastErr)
	}
	if f.CleaningActive() {
		t.Fatal("cleaner still marked active after abort")
	}
	checkValidity(t, f)
	now = writeLBAs(t, f, now, 0, 10, 3)
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatalf("victim not cleanable after abort: %v", err)
	}
	now = f.Sched.Drain(now)
	if st := f.Stats(); st.GCErases == 0 {
		t.Fatal("retry clean never erased the victim")
	}
	readLBAs(t, f, now, 0, 10, 3)
	readLBAs(t, f, now, 10, 20, 2)
	readLBAs(t, f, now, 20, 40, 1)
	checkValidity(t, f)
}

// TestPartialBatchWriteAccounting: an 8-sector write failing for good on
// its 5th page keeps and counts the 4 sectors that landed, returns the time
// it spent, and leaves the rest unwritten.
func TestPartialBatchWriteAccounting(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		f := newTestFTL(t)
		ss := f.SectorSize()
		failFrom(f, nand.OpProgram, 5, 100)
		done, err := f.Write(1000, 0, runPattern(ss, 0, 8, 1))
		f.Dev.SetFaultHook(nil)
		if err == nil || done <= 1000 {
			t.Fatalf("mid-run failure: err %v, done %d (now 1000)", err, done)
		}
		if st := f.Stats(); st.UserWrites != 4 || st.BytesWritten != int64(4*ss) {
			t.Fatalf("UserWrites %d, BytesWritten %d: want the 4 completed sectors", st.UserWrites, st.BytesWritten)
		}
		readLBAs(t, f, done, 0, 4, 1)
		buf := make([]byte, 4*ss)
		if _, err := f.Read(done, 4, buf); err != nil || !bytes.Equal(buf, make([]byte, 4*ss)) {
			t.Fatalf("LBAs 4-7, past the failure, must read zeros (%v)", err)
		}
		checkValidity(t, f)
	})
}

// TestPartialBatchReadAccounting: an 8-sector read failing for good on its
// 4th page counts only the 3 sectors read before it.
func TestPartialBatchReadAccounting(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		f := newTestFTL(t)
		now, before := writeLBAs(t, f, 0, 0, 8, 1), f.Stats()
		failFrom(f, nand.OpRead, 4, 100)
		done, err := f.Read(now, 0, make([]byte, 8*f.SectorSize()))
		f.Dev.SetFaultHook(nil)
		if err == nil || done <= now {
			t.Fatalf("mid-run read failure: err %v, done %d (now %d)", err, done, now)
		}
		if st := f.Stats(); st.UserReads-before.UserReads != 3 || st.BytesRead-before.BytesRead != int64(3*f.SectorSize()) {
			t.Fatalf("read %d sectors, %d bytes: want the 3 completed", st.UserReads-before.UserReads, st.BytesRead-before.BytesRead)
		}
	})
}
