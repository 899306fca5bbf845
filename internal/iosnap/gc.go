package iosnap

import (
	"fmt"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// The snapshot-aware segment cleaner (paper §5.4.3). Cleaning a segment:
//
//  1. merge the per-epoch validity bitmaps (logical OR, skipping deleted
//     epochs) into a cumulative map for the segment;
//  2. copy-forward the blocks valid in the merged map, preserving their
//     epoch tags (the OOB header moves verbatim);
//  3. for every live epoch that referenced a moved block, clear the old bit
//     and set the new one — in the worst case as many flips as epochs;
//  4. re-point the forward map of every view (active and activated) whose
//     translation referenced the moved block;
//  5. erase the victim.

// selectVictim picks the non-head segment with the best score under the
// *merged* view (the only correct notion of invalid once snapshots exist),
// returning the victim (-1 for none) and the merge CPU charged for bringing
// stale caches up to date. A segment with no merged-invalid block is never
// a victim — cleaning it would be pure copy-forward churn. The log head and
// a segment mid-clean are never picked (a forced clean stealing the latter
// would erase it twice and corrupt the free pool).
func (f *FTL) selectVictim() (victim int, cost sim.Duration) {
	cost = f.acct.refreshAll()
	f.stats.GCVictimSelects++
	if cost == 0 {
		f.stats.GCCacheHits++
	}
	return f.BestVictim(), cost
}

// maybeScheduleGC starts background cleaning when the pool is low and the
// log admits one (logcore.AdmitClean).
func (f *FTL) maybeScheduleGC(now sim.Time) {
	if !f.AdmitClean() {
		return
	}
	victim, cost := f.selectVictim()
	f.stats.GCMergeTime += cost
	if victim < 0 {
		f.EndClean()
		return
	}
	f.ScheduleClean(now, victim)
}

// ScheduleClean implements logcore.Policy: a paced background clean of seg,
// picked by selectVictim or forced by ForceClean. The work estimate (and
// hence pacing) follows the configured GCPolicy.
func (f *FTL) ScheduleClean(now sim.Time, seg int) {
	cost := f.acct.ensureFresh(seg) // zero straight after a selection
	f.stats.GCMergeTime += cost
	est := f.ValidCount(seg)
	if f.cfg.GCPolicy == GCVanillaEstimate {
		// The unmodified driver plans from the active epoch only; with
		// snapshots present this underestimates the copy-forward work and
		// the tail of the clean runs unpaced (Figure 10b).
		pps := int64(f.cfg.Nand.PagesPerSegment)
		est = f.vstore.CountValid(f.active.epoch, int64(seg)*pps, int64(seg+1)*pps)
	}
	// The task copies the merged map as of now: re-merging it in its first
	// quantum would charge GCMergeTime twice for one clean.
	f.BeginClean(now, seg, &gcTask{
		f:       f,
		victim:  seg,
		pacer:   f.CleanPacer(now, est),
		started: now,
		order:   f.copyOrder(seg),
	})
}

// gcTask incrementally cleans one victim under pacing.
type gcTask struct {
	f       *FTL
	victim  int
	pacer   *ratelimit.Pacer
	started sim.Time
	order   []int // victim page indices to copy, in copy order
	cursor  int
}

// Name implements sim.Task.
func (t *gcTask) Name() string { return fmt.Sprintf("iosnap-gc(seg %d)", t.victim) }

// Run implements sim.Task.
func (t *gcTask) Run(now sim.Time) (sim.Time, bool) {
	f := t.f
	if f.Closed() {
		return 0, true // cancelled by Close, which released the slot
	}
	var err error
	t.cursor, now, err = f.CopyForward(now, t.victim, t.order, t.cursor, f.cfg.GCChunk, f.blockMoved)
	if err != nil {
		// Abort, but leave the victim cleanable: blocks already moved had
		// their validity bits and translations re-pointed one by one, the
		// failed destination page was rolled back by CopyForward, and the
		// victim stays in UsedSegs for a later clean to re-select. Record
		// the error instead of dropping it on the floor.
		f.AbortClean(err)
		return 0, true
	}
	if t.cursor < len(t.order) {
		next := t.pacer.Ready(now)
		if _, overrun := t.pacer.Consumed(); overrun {
			// The estimate was exhausted: this quantum (and the rest of the
			// segment) runs unthrottled — the failure mode of a snapshot-
			// unaware work estimate (Figure 10b).
			f.stats.GCUnpacedQuanta++
		}
		return next, false
	}
	if now, err = f.FinishClean(now, t.victim); err != nil {
		// Erase failed: FinishClean left the victim in UsedSegs and its
		// remaining valid blocks untouched, so the device is consistent.
		f.AbortClean(err)
		return 0, true
	}
	f.EndClean()
	f.CleanDone(now, t.started)
	f.maybeScheduleGC(now)
	return 0, true
}

// copyOrder lists the page indices of the victim worth copying, in page
// order: valid in the merged map as of now (the caller made its cache
// fresh), or pinned.
func (f *FTL) copyOrder(victim int) []int {
	merged := f.acct.mergedClone(victim)
	f.orPinsInto(victim, merged)
	pps := f.cfg.Nand.PagesPerSegment
	idxs := make([]int, 0, pps)
	for i := 0; i < pps; i++ {
		if merged.Test(int64(i)) {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// CleanOnce implements logcore.Policy: it synchronously cleans the best
// victim (the forced path). Selection already leaves the victim's merged
// map cached and fresh, so the clean reuses it instead of merging (and
// charging) a second time.
func (f *FTL) CleanOnce(now sim.Time, forced bool) (sim.Time, error) {
	victim, cost := f.selectVictim()
	f.stats.GCMergeTime += cost
	now = now.Add(cost)
	if victim < 0 {
		return now, ErrDeviceFull
	}
	start := now
	now, err := f.cleanSegment(now, victim)
	if err != nil {
		return now, err
	}
	if forced {
		f.stats.GCForced++
	}
	f.CleanDone(now, start)
	return now, nil
}

// cleanSegment copies everything worth keeping off seg in one unpaced go —
// every block valid in ANY live epoch, so snapshotted data and note pages
// survive and every epoch's validity bits plus every view's translations are
// re-pointed — then erases it (or retires it, if it is dying).
func (f *FTL) cleanSegment(now sim.Time, seg int) (sim.Time, error) {
	order := f.copyOrder(seg)
	for cursor := 0; cursor < len(order); {
		var err error
		cursor, now, err = f.CopyForward(now, seg, order, cursor, len(order), f.blockMoved)
		if err != nil {
			return now, err
		}
	}
	return f.FinishClean(now, seg)
}

// blockMoved is the cleaner's fix-up for one block copied off victim
// (logcore.MovedFunc). The log has already aged the destination segment and
// moved a pinned page's pin; what is left is ioSnap's: every holding epoch's
// validity bit is re-pointed (step 3), and every view's forward map entry
// follows (step 4).
func (f *FTL) blockMoved(victim int, old, dst nand.PageAddr, h header.Header) {
	// Step 3: re-point every live epoch that saw the old block. In the
	// worst case this flips bits in as many maps as there are live epochs.
	f.holders = f.vstore.Repoint(int64(old), int64(dst), f.holders)
	holders := f.holders
	// Mirror the re-point in the incremental accounting: the holders are
	// known exactly here, so both the merged and the frozen caches can be
	// fixed without a rebuild.
	frozenHolder := false
	for _, e := range holders {
		if !f.backsView(e) {
			frozenHolder = true
			break
		}
	}
	f.acct.onBlockMoved(old, dst, len(holders) > 0, frozenHolder)
	// Step 4: re-point forward maps.
	if h.Type == header.TypeData {
		for _, v := range f.views {
			if cur, ok := v.fmap.Lookup(h.LBA); ok && cur == uint64(old) {
				v.fmap.Insert(h.LBA, uint64(dst))
			}
		}
	}
	// Keep in-flight activations and exports coherent.
	for _, s := range f.scans {
		s.onBlockMoved(old, dst, h)
	}
	if f.Dev.SegmentHealth(victim) != nand.Healthy {
		f.stats.RescuedPages++
	}
}

// CountValidActive counts active-epoch-valid blocks in [lo, hi) physical
// pages (experiment/diagnostic hook).
func (f *FTL) CountValidActive(lo, hi int64) int {
	return f.vstore.CountValid(f.active.epoch, lo, hi)
}

// CountValidMerged counts merged-valid blocks in [lo, hi) physical pages
// across all live epochs (experiment/diagnostic hook).
func (f *FTL) CountValidMerged(lo, hi int64) int {
	return f.vstore.MergeRange(f.vstore.LiveEpochs(), lo, hi).Count()
}
