package logcore

import (
	"fmt"

	"iosnap/internal/nand"
)

// Victim selection is greedy: the most reclaimable pages win (§5.2.3 names
// invalid data as the first criterion). The policy decides what "valid"
// means and keeps each segment's count current (AddValid / SetValid); the
// log keeps each segment's pinned-page count (checkpoint chunks and
// translation pages, adjusted by the pin helpers in checkpoint.go and
// mappage.go), tracks segments as they enter and leave UsedSegs and picks
// the victim from the counts alone in O(log S) — a min-heap on valid +
// pinned, i.e. a max-heap on reclaimable pages — with no bitmap or pin-set
// walk.
//
// Determinism: a linear scan of UsedSegs oldest-first that keeps the first
// strict maximum is the reference order. The heap reproduces it by breaking
// ties on a monotone tracking stamp: segments are tracked in the order they
// enter UsedSegs and removals never reorder survivors, so stamp order always
// equals UsedSegs order.

// victimHeap is a min-heap of the tracked segments by (valid+pinned, stamp).
type victimHeap struct {
	valid  []int    // per segment: pages the policy counts valid
	pinned []int    // per segment: pinned pages (CkptPins + MapPins)
	stamp  []uint64 // per segment: tracking order, 0 = untracked
	pos    []int    // per tracked segment: its index in heap
	heap   []int
	next   uint64
}

func newVictimHeap(segments int) victimHeap {
	return victimHeap{
		valid:  make([]int, segments),
		pinned: make([]int, segments),
		stamp:  make([]uint64, segments),
		pos:    make([]int, segments),
	}
}

// ValidCount returns the number of seg's pages the policy counts valid.
func (l *Log) ValidCount(seg int) int { return l.victims.valid[seg] }

// AddValid adjusts seg's valid-page count by delta.
func (l *Log) AddValid(seg, delta int) { l.SetValid(seg, l.victims.valid[seg]+delta) }

// SetValid sets seg's valid-page count.
func (l *Log) SetValid(seg, n int) {
	h := &l.victims
	h.valid[seg] = n
	h.keyChanged(seg)
}

// PinnedInSeg counts pinned pages (checkpoint chunks and live
// GTD-referenced translation pages) in seg. Victim scoring must treat them
// as live: a segment full of pinned pages has zero valid bits yet cleaning
// it reclaims nothing — picking it anyway would let the emergency-clean loop
// churn forever moving pins from segment to segment.
func (l *Log) PinnedInSeg(seg int) int { return l.victims.pinned[seg] }

// addPinned adjusts the pinned-page count of the segment holding a.
func (l *Log) addPinned(a nand.PageAddr, delta int) {
	h := &l.victims
	seg := l.Dev.SegmentOf(a)
	h.pinned[seg] += delta
	h.keyChanged(seg)
}

// keyChanged restores the heap around seg after its valid or pinned count
// moved (untracked segments are not in the heap).
func (h *victimHeap) keyChanged(seg int) {
	if h.stamp[seg] != 0 {
		h.fix(h.pos[seg])
	}
}

// track registers a segment that just entered UsedSegs and tells the policy.
func (l *Log) track(seg int, fresh bool) {
	if h := &l.victims; h.stamp[seg] == 0 {
		h.next++
		h.stamp[seg] = h.next
		h.push(seg)
	}
	l.policy.SegmentTracked(seg, fresh)
}

// untrack drops a segment that left UsedSegs (erased or retired) and tells
// the policy. Retirement may hit a segment that was already in the free
// pool, which the heap never held.
func (l *Log) untrack(seg int) {
	if h := &l.victims; h.stamp[seg] != 0 {
		h.remove(h.pos[seg])
		h.stamp[seg] = 0
	}
	l.policy.SegmentReleased(seg)
}

// BestVictim picks the cleaning victim — the segment with the most
// reclaimable pages, the older one on a tie — or -1 when no candidate
// exists. The log head and a segment a background clean is mid-way through
// are never picked (a forced clean stealing the latter would erase it twice
// and corrupt the free pool), and neither is a segment with nothing to
// reclaim once pinned pages count as live: cleaning it burns an erase for no
// space and, picked repeatedly, would wedge the emergency-clean loop
// shuffling pins from segment to segment. Ineligible segments at the heap
// top are parked aside during the search and pushed back after it.
func (l *Log) BestVictim() int {
	h := &l.victims
	best := -1
	var parked []int
	for len(h.heap) > 0 && best < 0 {
		top := h.heap[0]
		if top != l.HeadSeg && top != l.GCVictim && h.valid[top]+h.pinned[top] < l.cfg.Nand.PagesPerSegment {
			best = top
		} else {
			h.remove(0)
			parked = append(parked, top)
		}
	}
	for _, seg := range parked {
		h.push(seg)
	}
	return best
}

func (h *victimHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	if ka, kb := h.valid[a]+h.pinned[a], h.valid[b]+h.pinned[b]; ka != kb {
		return ka < kb
	}
	return h.stamp[a] < h.stamp[b]
}

func (h *victimHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]], h.pos[h.heap[j]] = i, j
}

func (h *victimHeap) push(seg int) {
	h.pos[seg] = len(h.heap)
	h.heap = append(h.heap, seg)
	h.fix(h.pos[seg])
}

func (h *victimHeap) remove(i int) {
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap = h.heap[:last]
	if i < last {
		h.fix(i)
	}
}

// fix restores the heap property around position i after its key changed.
func (h *victimHeap) fix(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
	for {
		min := i
		if c := 2*i + 1; c < len(h.heap) && h.less(c, min) {
			min = c
		}
		if c := 2*i + 2; c < len(h.heap) && h.less(c, min) {
			min = c
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// CheckVictimHeap audits the selection structure (the invariant checker's
// share of it): every segment's pinned count equals a recount of CkptPins
// and MapPins, exactly the used segments are tracked, stamps strictly
// increase in UsedSegs order — the tie-break that makes heap selection
// reproduce the oldest-first scan — and the heap holds exactly the tracked
// segments with correct back-pointers and the heap property intact.
func (l *Log) CheckVictimHeap() error {
	h := &l.victims
	// The recount is keyed by the segments pins name, and the total catches
	// a count left on a segment that holds none (no per-segment allocation on
	// a TB-class geometry).
	recount := make(map[int]int)
	for a := range l.CkptPins {
		recount[l.Dev.SegmentOf(a)]++
	}
	for a := range l.MapPins {
		recount[l.Dev.SegmentOf(a)]++
	}
	for s, n := range recount {
		if h.pinned[s] != n {
			return fmt.Errorf("invariant: segment %d pinned count %d, pin sets hold %d", s, h.pinned[s], n)
		}
	}
	total := 0
	for _, n := range h.pinned {
		total += n
	}
	if want := len(l.CkptPins) + len(l.MapPins); total != want {
		return fmt.Errorf("invariant: pinned counts sum to %d, pin sets hold %d", total, want)
	}
	if len(h.heap) != len(l.UsedSegs) {
		return fmt.Errorf("invariant: victim heap has %d entries for %d used segments", len(h.heap), len(l.UsedSegs))
	}
	var prev uint64
	for _, s := range l.UsedSegs {
		if h.stamp[s] <= prev {
			return fmt.Errorf("invariant: victim stamp order broken at used segment %d (%d after %d)", s, h.stamp[s], prev)
		}
		prev = h.stamp[s]
	}
	for i, s := range h.heap {
		if h.stamp[s] == 0 || h.pos[s] != i {
			return fmt.Errorf("invariant: victim heap[%d] (segment %d) back-pointer is %d, stamp %d", i, s, h.pos[s], h.stamp[s])
		}
		if i > 0 && h.less(i, (i-1)/2) {
			return fmt.Errorf("invariant: victim heap property broken at index %d (segment %d)", i, s)
		}
	}
	return nil
}
