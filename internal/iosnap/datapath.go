package iosnap

// ioSnap's share of the foreground data path. The run skeleton — map
// charge, translation-page faults, per-segment chunks at the log head, batch
// NAND calls — is the log engine's (logcore.ReadRun / WriteRun /
// TrimActive), called with the view's map and epoch. What is left here is
// what a committed run owes the CoW validity store: the new pages set and
// the displaced translations cleared in the view's epoch, through the
// store's word-level range kernels (one CoW page copy per touched bitmap
// page, exactly what per-bit flips would have copied). The path stays
// snapshot-oblivious: no per-snapshot work appears anywhere; only CoW page
// copies — charged once, in aggregate, at the end of the run — betray a
// snapshot's existence (Figure 7's spikes).

import (
	"iosnap/internal/bitmap"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// RunCommitted implements logcore.Policy: it flips the view epoch's validity
// for one committed run and returns the cost of the CoW bitmap-page copies
// the flips triggered — each inherited page is copied exactly once per epoch
// regardless of how many bits in it flip.
func (f *FTL) RunCommitted(epoch uint64, set []nand.PageAddr, cleared []uint64) sim.Duration {
	e := bitmap.Epoch(epoch)
	cows := 0
	if len(set) > 0 {
		lo, hi := int64(set[0]), int64(set[0])+int64(len(set))
		cows += f.vstore.SetRange(e, lo, hi)
		f.acct.onViewSetRun(lo, hi)
	}
	cows += f.clearViewRuns(e, cleared)
	return sim.Duration(cows) * f.cfg.CoWPageCost
}

// clearViewRuns clears the given physical pages in epoch e, one ClearRange
// per segment-contained run of neighbours. Returns CoW copies.
func (f *FTL) clearViewRuns(e bitmap.Epoch, prevs []uint64) int {
	logcore.SortPages(prevs)
	cows := 0
	for len(prevs) > 0 {
		var lo, hi int64
		lo, hi, prevs = f.NextRun(prevs)
		cows += f.vstore.ClearRange(e, lo, hi)
		f.acct.onViewClearRun(e, lo, hi)
	}
	return cows
}
