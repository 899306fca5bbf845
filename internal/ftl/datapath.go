package ftl

import (
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// The vanilla FTL's share of the foreground data path. The run skeleton is
// the log engine's (logcore.Read / WriteActive / TrimActive); what is left
// is what a committed run owes the one validity bitmap.

// RunCommitted implements logcore.Policy: the freshly programmed pages
// become valid and the displaced translations invalid, word-at-a-time. The
// flips cost no modeled host time.
func (f *FTL) RunCommitted(_ uint64, set []nand.PageAddr, cleared []uint64) sim.Duration {
	if len(set) > 0 {
		f.markValidRun(int64(set[0]), int64(set[0])+int64(len(set)))
	}
	f.markInvalidRuns(cleared)
	return 0
}

// markValidRun sets validity over one segment-contained physical run with a
// word-level kernel, adjusting the per-segment counter by the number of
// bits that actually transitioned — exactly what per-bit markValid calls
// would have recorded.
func (f *FTL) markValidRun(lo, hi int64) {
	delta := int(hi-lo) - f.validity.CountRange(lo, hi)
	if delta == 0 {
		return
	}
	f.validity.SetRange(lo, hi)
	f.AddValid(f.Dev.SegmentOf(nand.PageAddr(lo)), delta)
}

// markInvalidRuns invalidates the given physical pages, one ClearRange per
// segment-contained run of neighbours.
func (f *FTL) markInvalidRuns(prevs []uint64) {
	logcore.SortPages(prevs)
	for len(prevs) > 0 {
		var lo, hi int64
		lo, hi, prevs = f.NextRun(prevs)
		if delta := f.validity.CountRange(lo, hi); delta > 0 {
			f.validity.ClearRange(lo, hi)
			f.AddValid(f.Dev.SegmentOf(nand.PageAddr(lo)), -delta)
		}
	}
}
