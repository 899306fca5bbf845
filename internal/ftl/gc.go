package ftl

import (
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// The vanilla cleaner's decisions: the victim is the log's greedy pick over
// the bitmap's exact counts, and the clean walks it with a live cursor,
// copying whatever the bitmap still calls valid at copy time. The clean
// lifecycle — admission, pacing, the copy-forward batch, the erase — is the
// log engine's (logcore/clean.go).

// PickVictim implements logcore.Policy: the log's valid counts mirror the
// bitmap exactly, so picking merges nothing.
func (f *FTL) PickVictim() (int, sim.Duration) { return f.BestVictim(), 0 }

// PlanClean implements logcore.Policy. The valid pages seg holds now are the
// estimate, and the clean charges one merge pass over its bitmap. Validity
// is re-tested at copy time, quantum by quantum: a page a foreground write
// invalidated since the victim was chosen is not copied. No vanilla page is
// pinned — there is no checkpoint chunk and no translation page — so
// validity is the whole test.
func (f *FTL) PlanClean(seg int) logcore.CleanPlan {
	pps := f.cfg.Nand.PagesPerSegment
	cursor := 0
	var order []int
	return logcore.CleanPlan{
		Estimate: f.ValidCount(seg),
		Merge:    sim.Duration(pps) * logcore.MergeCPUPerBlock,
		Next: func(max int) ([]int, bool) {
			order = order[:0]
			for ; cursor < pps && len(order) < max; cursor++ {
				if f.validity.Test(int64(f.Dev.Addr(seg, cursor))) {
					order = append(order, cursor)
				}
			}
			return order, cursor < pps
		},
		Moved: f.blockMoved,
	}
}

// blockMoved is the cleaner's fix-up for one copied data page
// (logcore.MovedFunc): its translation is re-pointed and the validity bit
// follows the page.
func (f *FTL) blockMoved(_ int, old, dst nand.PageAddr, h header.Header) {
	f.ActiveMap.Insert(h.LBA, uint64(dst))
	f.markInvalid(int64(old))
	f.markValid(int64(dst))
}
