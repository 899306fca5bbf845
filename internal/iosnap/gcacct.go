package iosnap

import (
	"iosnap/internal/bitmap"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Incremental merged-validity accounting for the snapshot-aware cleaner.
//
// The cleaner's victim choice needs, per used segment, the number of blocks
// valid in ANY live epoch (the merged view, paper §5.4.3). Recomputing that
// merge for every used segment at every scheduling decision costs
// O(segments × live-epochs × pages-per-segment); this layer makes it
// incremental instead:
//
//   - every used segment carries a cached merged bitmap, and the log engine
//     a merged-valid counter for it (logcore.AddValid), both updated O(1) on
//     each validity-bit flip (write, trim, copy-forward re-point);
//   - epoch create/delete (and view publish/retire) invalidates lazily by
//     advancing a generation stamp; a stale segment's cache is rebuilt
//     word-at-a-time — one pass per live epoch over just that segment —
//     at most once per epoch-set change;
//   - victim selection reads the engine's counters (logcore.BestVictim, a
//     greedy heap), so a decision with fresh caches costs no merging at all.
//
// To keep view-epoch clears O(1), two bitmaps are cached per segment: the
// full merge ("merged") and the merge over live epochs that do NOT back a
// view ("frozen"). Frozen epochs only change under the cleaner's re-points,
// where the affected epochs are known exactly, so after a view epoch clears
// bit p the new merged bit is frozen(p) OR the other views' bits — a
// constant number of probes.

// segAcct is one used segment's cached cleaning state.
type segAcct struct {
	seg    int
	merged *bitmap.Bitmap // OR of validity across all live epochs (segment-relative); its popcount is the log's ValidCount
	frozen *bitmap.Bitmap // OR across live epochs not backing a view
	gen    uint64         // accounting generation the caches were built against
}

// gcAcct owns the per-segment caches.
type gcAcct struct {
	f        *FTL
	bySeg    []*segAcct // indexed by segment; nil when not in UsedSegs
	viewGen  uint64     // advanced when the set of view-backing epochs changes
	freshGen uint64     // generation as of the last complete refreshAll

	frozenEps, viewEps []bitmap.Epoch // ensureFresh's split of the live epochs, reused
}

func newGCAcct(f *FTL) *gcAcct {
	return &gcAcct{f: f, bySeg: make([]*segAcct, f.cfg.Nand.Segments)}
}

// curGen combines the validity store's epoch generation (create/delete)
// with the view generation (publish/deactivate): cached merges are exact
// only while both stand still.
func (a *gcAcct) curGen() uint64 { return a.f.vstore.Gen() + a.viewGen }

// backsView reports whether epoch e absorbs the writes of a live view (the
// active one included) — the class of live epoch foreground I/O can flip.
func (f *FTL) backsView(e bitmap.Epoch) bool {
	for _, v := range f.views {
		if v.epoch == e {
			return true
		}
	}
	return false
}

// bumpViewGen invalidates the frozen/view epoch split (an epoch moved
// between the "backs a view" and "frozen" classes without the store's
// epoch set changing).
func (a *gcAcct) bumpViewGen() { a.viewGen++ }

// track registers a segment that just entered UsedSegs. freshEmpty marks a
// just-erased segment entering service as log head: no live epoch holds a
// bit there, so its cache starts exact (all-zero) with no rebuild charge.
// Recovery passes false — caches start stale and the first selection
// decision rebuilds them.
func (a *gcAcct) track(seg int, freshEmpty bool) {
	pps := int64(a.f.cfg.Nand.PagesPerSegment)
	e := &segAcct{seg: seg}
	if freshEmpty {
		e.merged = bitmap.New(pps)
		e.frozen = bitmap.New(pps)
		e.gen = a.curGen()
	}
	a.bySeg[seg] = e
	a.f.SetValid(seg, 0) // a stale cache ignored the flips since it went stale
}

// untrack drops a segment that left UsedSegs (erased back to the pool, or
// retired).
func (a *gcAcct) untrack(seg int) { a.bySeg[seg] = nil }

// entryFor returns the fresh cache entry covering physical page p, or nil
// when the page's segment is untracked or its cache is stale (a stale cache
// ignores flips; the next rebuild recomputes it exactly).
func (a *gcAcct) entryFor(p int64) (*segAcct, int64) {
	pps := int64(a.f.cfg.Nand.PagesPerSegment)
	e := a.bySeg[p/pps]
	if e == nil || e.gen != a.curGen() {
		return nil, 0
	}
	return e, p % pps
}

// onViewSet records that a view epoch set validity bit p (write path, note
// append). A set bit in any live epoch sets the merged bit.
func (a *gcAcct) onViewSet(p int64) {
	e, rel := a.entryFor(p)
	if e == nil {
		return
	}
	if !e.merged.Test(rel) {
		e.merged.Set(rel)
		a.f.AddValid(e.seg, 1)
	}
}

// onViewSetRun is onViewSet over one segment-contained physical run: the
// merged cache absorbs the range word-at-a-time and the heap fixes once,
// recording exactly the transitions per-bit calls would have.
func (a *gcAcct) onViewSetRun(lo, hi int64) {
	e, rel := a.entryFor(lo)
	if e == nil {
		return
	}
	n := hi - lo
	delta := int(n) - e.merged.CountRange(rel, rel+n)
	if delta > 0 {
		e.merged.SetRange(rel, rel+n)
		a.f.AddValid(e.seg, delta)
	}
}

// onViewClearRun records that view epoch ve cleared validity over one
// segment-contained run (overwrites of previous translations, or a trim). A
// bit's post-clear merged value is the frozen cache ORed with the remaining
// views' bits. Those holder checks cannot be batched — they depend on each
// bit's cross-epoch state — but the heap fixes once for the whole run.
func (a *gcAcct) onViewClearRun(ve bitmap.Epoch, lo, hi int64) {
	e, rel := a.entryFor(lo)
	if e == nil {
		return
	}
	delta := 0
	for p, r := lo, rel; p < hi; p, r = p+1, r+1 {
		if !e.merged.Test(r) || e.frozen.Test(r) {
			continue
		}
		held := false
		for _, v := range a.f.views {
			if v.epoch != ve && a.f.vstore.Test(v.epoch, p) {
				held = true
				break
			}
		}
		if held {
			continue
		}
		e.merged.Clear(r)
		delta++
	}
	if delta > 0 {
		a.f.AddValid(e.seg, -delta)
	}
}

// onBlockMoved records a cleaner copy-forward: every live holder's validity
// bit moved from old to dst. frozenHolder reports whether any holder epoch
// does not back a view, i.e. whether the frozen cache's bit moves too.
func (a *gcAcct) onBlockMoved(old, dst nand.PageAddr, anyHolder, frozenHolder bool) {
	if !anyHolder {
		return
	}
	if e, rel := a.entryFor(int64(old)); e != nil {
		if e.merged.Test(rel) {
			e.merged.Clear(rel)
			a.f.AddValid(e.seg, -1)
		}
		e.frozen.Clear(rel)
	}
	if e, rel := a.entryFor(int64(dst)); e != nil {
		if !e.merged.Test(rel) {
			e.merged.Set(rel)
			a.f.AddValid(e.seg, 1)
		}
		if frozenHolder {
			e.frozen.Set(rel)
		}
	}
}

// ensureFresh rebuilds seg's caches if they are stale and returns the
// modeled CPU charge: one pass per live epoch over this segment's pages
// (the same per-segment work the old selection paid device-wide, now paid
// at most once per epoch-set change per segment). Fresh caches charge
// nothing.
func (a *gcAcct) ensureFresh(seg int) sim.Duration {
	e := a.bySeg[seg]
	gen := a.curGen()
	if e.gen == gen {
		return 0
	}
	f := a.f
	pps := int64(f.cfg.Nand.PagesPerSegment)
	lo, hi := int64(seg)*pps, int64(seg+1)*pps
	frozenEps, viewEps := a.frozenEps[:0], a.viewEps[:0]
	for _, ep := range f.vstore.LiveEpochs() {
		if f.backsView(ep) {
			viewEps = append(viewEps, ep)
		} else {
			frozenEps = append(frozenEps, ep)
		}
	}
	a.frozenEps, a.viewEps = frozenEps, viewEps
	e.frozen = f.vstore.MergeRangeInto(frozenEps, lo, hi, e.frozen)
	if e.merged == nil || e.merged.Len() != pps {
		e.merged = e.frozen.Clone()
	} else {
		e.merged.CopyFrom(e.frozen)
	}
	f.vstore.OrRangeInto(viewEps, lo, hi, e.merged)
	f.SetValid(seg, e.merged.Count())
	e.gen = gen
	f.stats.GCCacheRebuilds++
	f.stats.GCCacheRebuildPages += pps
	live := int64(len(frozenEps) + len(viewEps))
	return sim.Duration(live) * sim.Duration(pps) * logcore.MergeCPUPerBlock
}

// refreshAll brings every used segment's cache up to the current generation
// before a selection decision. When nothing changed since the last decision
// this is a single counter compare; after an epoch-set change each stale
// segment pays one rebuild. Deleted epochs can only shrink merged validity,
// so stale counters may under-estimate a segment's score — selection must
// therefore run on all-fresh caches, not pop lazily from the heap.
func (a *gcAcct) refreshAll() sim.Duration {
	if a.freshGen == a.curGen() {
		return 0
	}
	var total sim.Duration
	for _, seg := range a.f.UsedSegs {
		total += a.ensureFresh(seg)
	}
	a.freshGen = a.curGen()
	return total
}

// mergedClone hands out a private copy of seg's cached merged bitmap (the
// caller must have refreshed it). The clone decouples the cleaner's copy
// plan from accounting updates that land while the clean is paced out.
func (a *gcAcct) mergedClone(seg int) *bitmap.Bitmap {
	return a.bySeg[seg].merged.Clone()
}
