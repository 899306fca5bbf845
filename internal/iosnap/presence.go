package iosnap

import "iosnap/internal/bitmap"

// Per-segment epoch-presence summaries implement the paper's §7 activation
// optimization: "Activations can be further optimized by selectively
// scanning only those segments that have data corresponding to the
// snapshot." The FTL records which epochs have ever written into each
// segment (a tiny superset summary — never decremented until the segment is
// erased; a history reap renames a reaped epoch to its heir), and a
// selective activation scans only segments whose summary intersects the
// snapshot's lineage.
//
// Safety: the summary is monotone per segment lifetime, so a segment
// omitted from the scan list provably holds no block of any lineage epoch
// at scan-list construction time; blocks moved into such a segment *during*
// the activation are delivered through the cleaner's onBlockMoved hook.

// epochPresence tracks, per segment, the set of epochs with data present.
type epochPresence struct {
	segs []map[bitmap.Epoch]struct{}
}

func newEpochPresence(segments int) *epochPresence {
	return &epochPresence{segs: make([]map[bitmap.Epoch]struct{}, segments)}
}

// add records that epoch e has a block in segment seg.
func (p *epochPresence) add(seg int, e bitmap.Epoch) {
	m := p.segs[seg]
	if m == nil {
		m = make(map[bitmap.Epoch]struct{}, 4)
		p.segs[seg] = m
	}
	m[e] = struct{}{}
}

// clear resets a segment's summary (called on erase).
func (p *epochPresence) clear(seg int) { p.segs[seg] = nil }

// rename rewrites every summary after a reap: a reaped epoch gives way to
// its heir, which now holds the blocks stamped with it, or leaves when it
// was dropped with no descendant to hold any.
func (p *epochPresence) rename(heirOf map[bitmap.Epoch]bitmap.Epoch) {
	for _, m := range p.segs {
		for e := range m {
			if h, reaped := heirOf[e]; reaped {
				delete(m, e)
				if h != bitmap.NoParent {
					m[h] = struct{}{}
				}
			}
		}
	}
}

// intersects reports whether segment seg may hold blocks of any epoch in
// lineage.
func (p *epochPresence) intersects(seg int, lineage map[bitmap.Epoch]bool) bool {
	for e := range p.segs[seg] {
		if lineage[e] {
			return true
		}
	}
	return false
}

// segmentsFor returns the segments whose summaries intersect lineage, in
// ascending order.
func (p *epochPresence) segmentsFor(lineage map[bitmap.Epoch]bool) []int {
	var out []int
	for seg := range p.segs {
		if p.intersects(seg, lineage) {
			out = append(out, seg)
		}
	}
	return out
}

// count returns how many epochs are summarized for seg (tests/stats).
func (p *epochPresence) count(seg int) int { return len(p.segs[seg]) }
