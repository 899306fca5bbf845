package ftl

import (
	"fmt"

	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// The vanilla segment cleaner: pick the victim from the log's valid counts
// (logcore.BestVictim), walk it with a live cursor copying whatever the bitmap still calls
// valid at copy time, erase it. Admission, the copy-forward batch, the erase
// and the pools are the log engine's (logcore/clean.go).

// maybeScheduleGC starts a background cleaning task when the free pool is at
// or below the reserve and no cleaner is already running.
func (f *FTL) maybeScheduleGC(now sim.Time) {
	if !f.AdmitClean() {
		return
	}
	victim := f.BestVictim()
	if victim < 0 {
		f.EndClean()
		return
	}
	f.ScheduleClean(now, victim)
}

// ScheduleClean implements logcore.Policy: a paced background clean of seg,
// picked by selectVictim or forced by ForceClean. The number of valid pages
// it holds now is the work estimate.
func (f *FTL) ScheduleClean(now sim.Time, seg int) {
	f.BeginClean(now, seg, &gcTask{
		f:       f,
		victim:  seg,
		pacer:   f.CleanPacer(now, f.ValidCount(seg)),
		started: now,
	})
}

// gcTask incrementally cleans one victim segment under pacing.
type gcTask struct {
	f       *FTL
	victim  int
	pacer   *ratelimit.Pacer
	started sim.Time
	cursor  int // next page index to examine within the victim
	merged  bool
}

// Name implements sim.Task.
func (t *gcTask) Name() string { return fmt.Sprintf("ftl-gc(seg %d)", t.victim) }

// Run implements sim.Task: one paced quantum of copy-forward.
func (t *gcTask) Run(now sim.Time) (sim.Time, bool) {
	f := t.f
	if f.Closed() {
		return 0, true // cancelled by Close, which released the slot
	}
	if !t.merged {
		now = f.chargeMerge(now)
		t.merged = true
	}
	var err error
	t.cursor, now, err = f.copyForward(now, t.victim, t.cursor, f.cfg.GCChunk)
	if err != nil {
		// Abandon the clean but record why: the victim keeps its remaining
		// valid pages (already-moved ones were re-pointed one by one and the
		// failed destination was rolled back), so forced cleaning can retry.
		f.AbortClean(err)
		return 0, true
	}
	if t.cursor < f.cfg.Nand.PagesPerSegment {
		return t.pacer.Ready(now), false
	}
	if now, err = f.FinishClean(now, t.victim); err != nil {
		// Erase failed; the victim stays in UsedSegs, consistent.
		f.AbortClean(err)
		return 0, true
	}
	f.EndClean()
	f.CleanDone(now, t.started)
	f.maybeScheduleGC(now) // chain onto the next victim if still low
	return 0, true
}

// chargeMerge charges the validity examination of one clean: a single pass
// over the victim's bitmap.
func (f *FTL) chargeMerge(now sim.Time) sim.Time {
	cost := sim.Duration(f.cfg.Nand.PagesPerSegment) * logcore.MergeCPUPerBlock
	f.stats.GCMergeTime += cost
	return now.Add(cost)
}

// CleanOnce implements logcore.Policy: it synchronously cleans the best
// victim (the forced path taken by writers when the pool is nearly empty).
func (f *FTL) CleanOnce(now sim.Time, forced bool) (sim.Time, error) {
	victim := f.BestVictim()
	if victim < 0 {
		return now, ErrDeviceFull
	}
	now = f.chargeMerge(now)
	start := now
	pps := f.cfg.Nand.PagesPerSegment
	for cursor := 0; cursor < pps; {
		var err error
		cursor, now, err = f.copyForward(now, victim, cursor, pps)
		if err != nil {
			return now, err
		}
	}
	now, err := f.FinishClean(now, victim)
	if err != nil {
		return now, err
	}
	if forced {
		f.stats.GCForced++
	}
	f.CleanDone(now, start)
	return now, nil
}

// copyForward moves up to max pages of the victim that are valid right now,
// starting at page index cursor, and returns the new cursor and the
// completion time. Validity is tested at copy time, quantum by quantum: a
// page a foreground write invalidated since the victim was chosen is not
// copied. No vanilla page is pinned — there is no checkpoint chunk and no
// translation page — so validity is the whole test.
func (f *FTL) copyForward(now sim.Time, victim, cursor, max int) (int, sim.Time, error) {
	pps := f.cfg.Nand.PagesPerSegment
	var order []int
	for ; cursor < pps && len(order) < max; cursor++ {
		if f.validity.Test(int64(f.Dev.Addr(victim, cursor))) {
			order = append(order, cursor)
		}
	}
	_, now, err := f.CopyForward(now, victim, order, 0, max, f.blockMoved)
	return cursor, now, err
}

// blockMoved is the cleaner's fix-up for one copied data page
// (logcore.MovedFunc): its translation is re-pointed and the validity bit
// follows the page.
func (f *FTL) blockMoved(_ int, old, dst nand.PageAddr, h header.Header) {
	f.ActiveMap.Insert(h.LBA, uint64(dst))
	f.markInvalid(int64(old))
	f.markValid(int64(dst))
}
