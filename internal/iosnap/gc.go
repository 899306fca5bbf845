package iosnap

import (
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
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
//
// The engine runs that lifecycle (logcore/clean.go); this file keeps the
// decisions: the victim, the plan of what to copy (steps 1 and 2) and the
// fix-up of each moved block (steps 3 and 4).

// PickVictim implements logcore.Policy: the non-head segment with the best
// score under the *merged* view (the only correct notion of invalid once
// snapshots exist), and the merge CPU charged for bringing stale caches up
// to date. A segment with no merged-invalid block is never a victim —
// cleaning it would be pure copy-forward churn. The log head and a segment
// mid-clean are never picked (a forced clean stealing the latter would erase
// it twice and corrupt the free pool).
func (f *FTL) PickVictim() (int, sim.Duration) {
	cost := f.acct.refreshAll()
	f.stats.GCVictimSelects++
	if cost == 0 {
		f.stats.GCCacheHits++
	}
	return f.BestVictim(), cost
}

// PlanClean implements logcore.Policy. The clean copies the merged map as
// of now — every block valid in ANY live epoch, so snapshotted data and note
// pages survive — plus pinned pages, without re-testing at copy time. A
// stale cache is rebuilt here and its merge booked, but the clean does not
// wait for it (the plan's Merge is zero): ioSnap charges merging where it
// decides, not where it copies. The work estimate, and hence the pacing,
// follows the configured GCPolicy.
func (f *FTL) PlanClean(seg int) logcore.CleanPlan {
	f.stats.GCMergeTime += f.acct.ensureFresh(seg) // zero straight after a PickVictim
	est := f.ValidCount(seg)
	if f.cfg.GCPolicy == GCVanillaEstimate {
		// The unmodified driver plans from the active epoch only; with
		// snapshots present this underestimates the copy-forward work and
		// the tail of the clean runs unpaced (Figure 10b).
		pps := int64(f.cfg.Nand.PagesPerSegment)
		est = f.vstore.CountValid(f.active.epoch, int64(seg)*pps, int64(seg+1)*pps)
	}
	order := f.copyOrder(seg)
	return logcore.CleanPlan{
		Estimate: est,
		Next: func(max int) ([]int, bool) {
			q := order[:min(max, len(order))]
			order = order[len(q):]
			return q, len(order) > 0
		},
		Moved: f.blockMoved,
	}
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
