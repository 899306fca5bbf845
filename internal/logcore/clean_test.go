package logcore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// step runs the scheduler's next task once and returns when it ran.
func (p *flatPolicy) step(t *testing.T) sim.Time {
	t.Helper()
	if p.Sched.Pending() == 0 {
		t.Fatal("no task queued")
	}
	at := p.Sched.NextAt()
	p.Sched.RunUntil(at)
	return at
}

// readsBack checks every LBA in [lo, hi) reads version ver.
func (p *flatPolicy) readsBack(t *testing.T, now sim.Time, lo, hi int64, ver uint64) {
	t.Helper()
	buf := make([]byte, 512)
	for lba := lo; lba < hi; lba++ {
		if _, _, err := p.ReadRun(p.ActiveMap, now, lba, buf); err != nil || !bytes.Equal(buf, model.Sectors(512, lba, 1, ver)) {
			t.Fatalf("LBA %d: %v, or not version %d", lba, err, ver)
		}
	}
}

// halfInvalidVictim writes LBAs 0-7 (filling segment 0), then overwrites
// LBAs 5-7, leaving pages 0-4 of segment 0 valid.
func (p *flatPolicy) halfInvalidVictim(t *testing.T) (victim int, now sim.Time) {
	t.Helper()
	now = p.mustWrite(t, 0, 0, 8, 1)
	victim = p.HeadSeg
	now = p.mustWrite(t, now, 5, 3, 2)
	if p.HeadSeg == victim || p.ValidCount(victim) != 5 {
		t.Fatalf("setup: head %d, victim %d holds %d valid pages; want another head and 5", p.HeadSeg, victim, p.ValidCount(victim))
	}
	return victim, now
}

// TestBackgroundCleanPacesThenErases: a clean of a segment holding 5 valid
// pages in quanta of 2 runs ⌈5/2⌉ = 3 quanta paced over GCWindow — the
// pacer's i-th unit not before start + i·window/3 — copies the 5 pages,
// erases the victim back to the free pool, and runs no quantum unpaced.
func TestBackgroundCleanPacesThenErases(t *testing.T) {
	const window = 3 * sim.Second
	p := newFlatWith(t, func(c *Config) { c.GCChunk = 2; c.GCWindow = window })
	victim, now := p.halfInvalidVictim(t)
	if err := p.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	var starts []sim.Time
	for p.CleaningActive() {
		starts = append(starts, p.step(t))
	}
	if len(starts) != 3 {
		t.Fatalf("the clean ran %d quanta, want 3", len(starts))
	}
	// The pacer hands out unit 0 as soon as the first quantum ends; unit 1
	// waits for a third of the window.
	if starts[0] != now || starts[1] >= now.Add(window/3) || starts[2] != now.Add(window/3) {
		t.Fatalf("quanta started at %v, want %v, then before and at %v", starts, now, now.Add(window/3))
	}
	st := p.Stats()
	if st.GCRuns != 1 || st.GCErases != 1 || st.GCCopied != 5 || st.GCUnpacedQuanta != 0 || st.GCErrors != 0 {
		t.Fatalf("GCRuns %d, GCErases %d, GCCopied %d, GCUnpacedQuanta %d, GCErrors %d; want 1, 1, 5, 0, 0",
			st.GCRuns, st.GCErases, st.GCCopied, st.GCUnpacedQuanta, st.GCErrors)
	}
	if p.SegInUse(victim) || !slices.Contains(p.FreeSegs, victim) || p.GCVictim != -1 || p.Sched.Pending() != 0 {
		t.Fatalf("after the clean: victim in use %v, free pool %v, GCVictim %d, %d tasks queued", p.SegInUse(victim), p.FreeSegs, p.GCVictim, p.Sched.Pending())
	}
	p.readsBack(t, now, 0, 5, 1)
	p.readsBack(t, now, 5, 8, 2)
	if err := p.CheckVictimHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCleanChains: a head advance that finds the pool at
// ReserveSegments starts a background clean; when it finishes with the pool
// still at the reserve it chains onto the next victim, and it stops once the
// pool is above the reserve. No writer is forced to clean.
func TestBackgroundCleanChains(t *testing.T) {
	const reserve = 5
	p := newFlatWith(t, func(c *Config) { c.ReserveSegments = reserve })
	now := sim.Time(0)
	var segs []int
	for ver := uint64(1); ver <= 4; ver++ {
		now = p.mustWrite(t, now, 0, 8, ver) // one whole segment per pass
		segs = append(segs, p.HeadSeg)
	}
	// The third pass took the pool to the reserve and queued a clean of the
	// first pass's segment; the fourth took it below, and the first three
	// segments now hold nothing valid.
	if p.GCVictim != segs[0] || len(p.FreeSegs) != reserve-1 {
		t.Fatalf("setup: clean of %d queued, %d free; want %d and %d", p.GCVictim, len(p.FreeSegs), segs[0], reserve-1)
	}
	now = p.Sched.Drain(now)
	st := p.Stats()
	if st.GCRuns != 2 || st.GCForced != 0 || len(p.FreeSegs) != reserve+1 || p.CleaningActive() {
		t.Fatalf("GCRuns %d, GCForced %d, %d free, cleaning %v; want 2 chained cleans, 0 forced, %d free, none in flight",
			st.GCRuns, st.GCForced, len(p.FreeSegs), p.CleaningActive(), reserve+1)
	}
	if p.SegInUse(segs[0]) || p.SegInUse(segs[1]) || !p.SegInUse(segs[2]) {
		t.Fatalf("used segments %v: want the first two passes' segments cleaned, the third's not", p.UsedSegs)
	}
	p.readsBack(t, now, 0, 8, 4)
}

// TestBackgroundCleanAbortsOnCopyFailure: a permanent copy failure in the
// second quantum aborts the clean, records it in GCErrors and GCLastErr, and
// leaves the victim in UsedSegs with the page that failed. The abort hands
// the failed copy's slot back, so writes still land at the head; a later
// clean takes the victim, now suspect, erases and retires it, and no data is
// lost.
func TestBackgroundCleanAbortsOnCopyFailure(t *testing.T) {
	p := newFlatWith(t, func(c *Config) { c.GCChunk = 2 })
	victim, now := p.halfInvalidVictim(t)
	p.failAt(nand.OpCopy, p.Dev.Addr(victim, 3), nand.ErrDeviceFailed, 0)
	if err := p.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	now = p.Sched.Drain(now)
	st := p.Stats()
	if st.GCErrors != 1 || !strings.Contains(st.GCLastErr, "copy-forward") || st.GCRuns != 0 || st.GCErases != 0 {
		t.Fatalf("GCErrors %d, GCLastErr %q, GCRuns %d, GCErases %d; want 1, a copy-forward error, 0, 0",
			st.GCErrors, st.GCLastErr, st.GCRuns, st.GCErases)
	}
	if p.CleaningActive() || !p.SegInUse(victim) || p.ValidCount(victim) != 2 {
		t.Fatalf("after the abort: cleaning %v, victim in use %v with %d valid pages; want false, true, 2 (the failing page and the one after it)",
			p.CleaningActive(), p.SegInUse(victim), p.ValidCount(victim))
	}

	p.Dev.SetFaultHook(nil)
	now = p.mustWrite(t, now, 5, 3, 3)
	if err := p.ForceClean(now, victim); err != nil {
		t.Fatalf("victim not cleanable after the abort: %v", err)
	}
	now = p.Sched.Drain(now)
	if st := p.Stats(); st.GCRuns != 1 || st.GCErases != 1 || p.SegInUse(victim) || slices.Contains(p.FreeSegs, victim) {
		t.Fatalf("later clean: GCRuns %d, GCErases %d, victim in use %v, free %v; want 1, 1 and the suspect victim retired",
			st.GCRuns, st.GCErases, p.SegInUse(victim), p.FreeSegs)
	}
	p.readsBack(t, now, 0, 5, 1)
	p.readsBack(t, now, 5, 8, 3)
}

// TestCloseCancelsBackgroundClean: Close releases a clean caught between two
// quanta; its next quantum finds the log closed and ends without copying or
// erasing, and the victim stays in UsedSegs.
func TestCloseCancelsBackgroundClean(t *testing.T) {
	p := newFlatWith(t, func(c *Config) { c.GCChunk = 2 })
	victim, now := p.halfInvalidVictim(t)
	if err := p.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	p.step(t)
	copied := p.Stats().GCCopied
	if !p.CleaningActive() || copied != 2 {
		t.Fatalf("after one quantum: cleaning %v, %d copied; want true and 2", p.CleaningActive(), copied)
	}
	now, err := p.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	if p.CleaningActive() {
		t.Fatal("Close left the clean in flight")
	}
	p.Sched.Drain(now)
	st := p.Stats()
	if p.Sched.Pending() != 0 || st.GCCopied != copied || st.GCRuns != 0 || st.GCErases != 0 || !p.SegInUse(victim) {
		t.Fatalf("after Close: %d queued, GCCopied %d, GCRuns %d, GCErases %d, victim in use %v; want 0, %d, 0, 0, true",
			p.Sched.Pending(), st.GCCopied, st.GCRuns, st.GCErases, p.SegInUse(victim), copied)
	}
}

// TestOutOfSpaceNamesTheInFlightClean: with the only reclaimable segment
// owned by a queued background clean, the writer's forced clean finds no
// victim and the write sheds; the error names no best victim and the
// in-flight clean's segment separately.
func TestOutOfSpaceNamesTheInFlightClean(t *testing.T) {
	p := newFlatWith(t, func(c *Config) {
		c.UserSectors = int64(c.Nand.Segments-c.RescueReserve) * int64(c.Nand.PagesPerSegment)
	})
	pps := p.cfg.Nand.PagesPerSegment
	now := p.mustWrite(t, 0, 0, pps, 1)
	victim := p.HeadSeg
	now, err := p.TrimActive(now, 0, 0, int64(pps))
	if err != nil {
		t.Fatal(err)
	}
	now = p.mustWrite(t, now, int64(pps), 1, 1) // the head moves off the trimmed segment
	if err := p.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	for lba := int64(pps) + 1; lba < p.Sectors(); lba++ {
		now = p.mustWrite(t, now, lba, 1, 1)
	}
	_, err = p.WriteActive(now, 0, int64(pps), model.Sectors(512, int64(pps), 1, 2))
	if !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("write with only the in-flight victim reclaimable: %v, want ErrOutOfSpace", err)
	}
	why := fmt.Sprintf("; best victim none; in-flight clean segment %d (0 valid and 0 pinned of %d pages)", victim, pps)
	if !strings.HasSuffix(err.Error(), why) {
		t.Fatalf("out-of-space error %q does not end in %q", err, why)
	}
	if !p.CleaningActive() || p.GCVictim != victim {
		t.Fatalf("the shed write disturbed the queued clean: cleaning %v, victim %d", p.CleaningActive(), p.GCVictim)
	}
}

// TestForcedCleanKeepsTheCleanersSegment: a write at a full head with the
// pool at the writers' floor forces two cleans, whose copies open a fresh
// segment and leave room in it. The write lands in that segment right
// after the copies; it does not open another segment and leave the
// cleaner's partly programmed.
func TestForcedCleanKeepsTheCleanersSegment(t *testing.T) {
	p := newFlat(t)
	// LBAs 0-7 and 8-15 fill two segments; overwriting all but the last two
	// LBAs of each leaves two victims of 2 valid pages. Fresh LBAs then fill
	// the log until the head is full and the pool is at the floor.
	now := p.mustWrite(t, 0, 0, 16, 1)
	now = p.mustWrite(t, now, 0, 6, 2)
	now = p.mustWrite(t, now, 8, 6, 2)
	now = p.mustWrite(t, now, 16, 20, 1)
	if p.HeadIdx != p.cfg.Nand.PagesPerSegment || len(p.FreeSegs) != p.cfg.DataReserve() {
		t.Fatalf("setup: head index %d, %d free; want a full head and %d free", p.HeadIdx, len(p.FreeSegs), p.cfg.DataReserve())
	}
	before := p.Stats()
	now = p.mustWrite(t, now, 36, 1, 1)
	st := p.Stats()
	if forced, copied := st.GCForced-before.GCForced, st.GCCopied-before.GCCopied; forced != 2 || copied != 4 {
		t.Fatalf("the write forced %d cleans copying %d pages; want 2 copying 4", forced, copied)
	}
	var last uint64 // the cleans' last copy
	for _, lba := range []uint64{6, 7, 14, 15} {
		a, _ := p.ActiveMap.Lookup(lba)
		last = max(last, a)
	}
	got, _ := p.ActiveMap.Lookup(36)
	if got != last+1 || p.Dev.SegmentOf(nand.PageAddr(got)) != p.Dev.SegmentOf(nand.PageAddr(last)) {
		t.Fatalf("the write landed at page %d and the cleans' last copy at %d; want the next page of the same segment", got, last)
	}
	p.readsBack(t, now, 0, 6, 2)
	p.readsBack(t, now, 6, 8, 1)
	p.readsBack(t, now, 8, 14, 2)
	p.readsBack(t, now, 14, 37, 1)
	if err := p.CheckVictimHeap(); err != nil {
		t.Fatal(err)
	}
}
