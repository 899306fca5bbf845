package iosnap

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
)

// CheckInvariants validates the FTL's cross-structure invariants and returns
// the first violation found (nil when all hold). It is the exported form of
// the checks the randomized stress tests always ran, promoted so the torture
// harness and `iosnapctl check` can assert consistency after fault injection
// and crash recovery:
//
//  1. every view's forward-map entry maps one of the device's LBAs to a
//     programmed page whose OOB header is a data header carrying that LBA,
//     stamped with an epoch in the view's lineage (a reaped stamp through
//     its heir), with the view-epoch validity bit set; no two LBAs of one
//     view share a physical page;
//  2. merged validity agrees with live OOB state: every page valid in any
//     live epoch is programmed with a parseable header, a data page's
//     stamping epoch is registered or left an heir, and every active-valid
//     data page is referenced by the active forward map;
//  3. the snapshot tree and the validity store's epoch inheritance are
//     consistent: every epoch inherits from an older one, every alias names
//     a reaped epoch and an heir the store holds, every live snapshot's
//     epoch exists in the store, parent/child links are mutual, and each
//     snapshot's epoch reaches its parent's epoch by walking the store's
//     parent chain; no deleted epoch is left that a reap would remove —
//     one with at most one child that no view, view parent or scan pins;
//  4. UsedSegs and FreeSegs partition the non-retired segments with no
//     duplicates, free segments hold no programmed pages, and the log head
//     lives in a used segment;
//  5. retired segments are fully out of service: in neither pool, never the
//     log head, with no block valid in any live epoch (their data was
//     rescued before retirement);
//  6. checkpoint pins are exactly the committed anchor's chunks plus the
//     in-flight generation's, each pinning a programmed page whose header
//     is a checkpoint-chunk type, and the device anchor mirrors the
//     committed generation.
//
// The checker inspects RAM state and raw page contents only (no timed device
// operations), so it is safe to run at any quiesced point — after
// Scheduler.Drain, or after Recover.
func (f *FTL) CheckInvariants() error {
	if err := f.checkViews(); err != nil {
		return err
	}
	if err := f.checkValidity(); err != nil {
		return err
	}
	if err := f.checkTree(); err != nil {
		return err
	}
	if err := f.checkPools(); err != nil {
		return err
	}
	if err := f.checkCheckpointPins(); err != nil {
		return err
	}
	if err := f.checkMapPins(); err != nil {
		return err
	}
	return f.checkGCAccounting()
}

// checkMapPins validates the paged map's cleaner-protection state: the pin
// set and the GTD must be a bijection (pin addr ↔ directory addr), and
// every pinned page must hold a parseable translation-page header whose
// LBA field names the pinned index.
func (f *FTL) checkMapPins() error {
	c, ok := f.ActiveMap.(*mapcache.Cache)
	if !ok {
		if len(f.MapPins) != 0 {
			return fmt.Errorf("invariant: %d translation-page pins with no paged map", len(f.MapPins))
		}
		return nil
	}
	for a, idx := range f.MapPins {
		want, ok := c.AddrOf(idx)
		if !ok {
			return fmt.Errorf("invariant: pinned translation page %d (addr %d) not in the GTD", idx, a)
		}
		if want != uint64(a) {
			return fmt.Errorf("invariant: translation page %d pinned at %d but GTD says %d", idx, a, want)
		}
		oob, err := f.Dev.PageOOB(a)
		if err != nil {
			return fmt.Errorf("invariant: pinned translation page %d not programmed: %v", a, err)
		}
		h, err := header.Unmarshal(oob)
		if err != nil {
			return fmt.Errorf("invariant: pinned translation page %d header: %v", a, err)
		}
		if h.Type != header.TypeMapPage {
			return fmt.Errorf("invariant: pinned page %d holds %v, not a translation page", a, h.Type)
		}
		if h.LBA != idx {
			return fmt.Errorf("invariant: pinned page %d header names translation page %d, pin says %d", a, h.LBA, idx)
		}
	}
	for _, ent := range c.GTDEntries() {
		if _, ok := f.MapPins[nand.PageAddr(ent.Addr)]; !ok {
			return fmt.Errorf("invariant: GTD page %d at %d not pinned", ent.Idx, ent.Addr)
		}
	}
	return nil
}

// checkCheckpointPins validates the cleaner-protection state of checkpoint
// chunks: pins and the anchor/in-flight chunk lists must name the same
// pages, every pinned page must hold a parseable checkpoint-chunk header,
// and the device anchor must mirror the committed generation.
func (f *FTL) checkCheckpointPins() error {
	named := make(map[nand.PageAddr]bool, len(f.AnchorAddrs)+len(f.CkptInflight))
	for _, a := range f.AnchorAddrs {
		named[a] = true
		if !f.CkptPins[a] {
			return fmt.Errorf("invariant: anchor chunk %d not pinned", a)
		}
	}
	for _, a := range f.CkptInflight {
		named[a] = true
		if !f.CkptPins[a] {
			return fmt.Errorf("invariant: in-flight checkpoint chunk %d not pinned", a)
		}
	}
	for a := range f.CkptPins {
		if !named[a] {
			return fmt.Errorf("invariant: pinned page %d named by neither the anchor nor the in-flight generation", a)
		}
		oob, err := f.Dev.PageOOB(a)
		if err != nil {
			return fmt.Errorf("invariant: pinned page %d not programmed: %v", a, err)
		}
		h, err := header.Unmarshal(oob)
		if err != nil {
			return fmt.Errorf("invariant: pinned page %d header: %v", a, err)
		}
		if !h.Type.IsCheckpoint() {
			return fmt.Errorf("invariant: pinned page %d holds %v, not a checkpoint chunk", a, h.Type)
		}
	}
	anchor := f.Dev.Anchor()
	if len(f.AnchorAddrs) > 0 {
		if anchor == nil {
			return fmt.Errorf("invariant: committed checkpoint %d has no device anchor", f.AnchorID)
		}
		if anchor.ID != f.AnchorID || len(anchor.Addrs) != len(f.AnchorAddrs) {
			return fmt.Errorf("invariant: device anchor (%d, %d chunks) diverges from committed checkpoint (%d, %d chunks)",
				anchor.ID, len(anchor.Addrs), f.AnchorID, len(f.AnchorAddrs))
		}
		for i, a := range f.AnchorAddrs {
			if anchor.Addrs[i] != a {
				return fmt.Errorf("invariant: device anchor chunk %d is %d, FTL records %d", i, anchor.Addrs[i], a)
			}
		}
	}
	return nil
}

// checkGCAccounting cross-checks the incremental merged-validity accounting
// (gcacct.go) against a from-scratch recompute:
//
//   - the engine's victim heap is sound (logcore.CheckVictimHeap) and the
//     cached segments are exactly the UsedSegs set;
//   - every FRESH entry's cached merged and frozen bitmaps match a scratch
//     merge over the live epochs (split by view membership), and its valid
//     counter matches the merged popcount. Stale entries (generation behind)
//     are legal — they are rebuilt before the next selection — so only
//     freshness is asserted for them, not contents.
func (f *FTL) checkGCAccounting() error {
	a := f.acct
	pps := int64(f.cfg.Nand.PagesPerSegment)
	gen := a.curGen()

	if err := f.CheckVictimHeap(); err != nil {
		return err
	}
	tracked := 0
	for s, e := range a.bySeg {
		if e == nil {
			continue
		}
		tracked++
		if e.seg != s {
			return fmt.Errorf("invariant: gcacct entry for segment %d carries seg %d", s, e.seg)
		}
	}
	if tracked != len(f.UsedSegs) {
		return fmt.Errorf("invariant: gcacct tracks %d segments, UsedSegs has %d", tracked, len(f.UsedSegs))
	}
	for _, s := range f.UsedSegs {
		if a.bySeg[s] == nil {
			return fmt.Errorf("invariant: used segment %d untracked by gcacct", s)
		}
	}

	// Scratch recompute for fresh caches. The epoch split mirrors ensureFresh.
	isView := make(map[bitmap.Epoch]bool, len(f.views))
	for _, v := range f.views {
		isView[v.epoch] = true
	}
	liveEps := f.vstore.LiveEpochs()
	var frozenEps []bitmap.Epoch
	for _, ep := range liveEps {
		if !isView[ep] {
			frozenEps = append(frozenEps, ep)
		}
	}
	for _, s := range f.UsedSegs {
		e := a.bySeg[s]
		if e.gen != gen {
			continue // stale by design; rebuilt before the next selection
		}
		lo, hi := int64(s)*pps, int64(s+1)*pps
		wantMerged := f.vstore.MergeRange(liveEps, lo, hi)
		wantFrozen := f.vstore.MergeRange(frozenEps, lo, hi)
		if !e.merged.Equal(wantMerged) {
			return fmt.Errorf("invariant: gcacct segment %d cached merged bitmap diverges from scratch merge", s)
		}
		if !e.frozen.Equal(wantFrozen) {
			return fmt.Errorf("invariant: gcacct segment %d cached frozen bitmap diverges from scratch merge", s)
		}
		if f.ValidCount(s) != wantMerged.Count() {
			return fmt.Errorf("invariant: gcacct segment %d valid counter %d, scratch merge counts %d", s, f.ValidCount(s), wantMerged.Count())
		}
	}
	return nil
}

// lineageOf returns the set of epochs on e's parent chain in the validity
// store, including e. The store only ever links an epoch to one it already
// holds, so the walk ends.
func (f *FTL) lineageOf(e bitmap.Epoch) (map[bitmap.Epoch]bool, error) {
	if !f.vstore.Exists(e) {
		return nil, fmt.Errorf("invariant: epoch %d missing from validity store", e)
	}
	out := map[bitmap.Epoch]bool{e: true}
	for p, ok := f.vstore.Parent(e); ok; p, ok = f.vstore.Parent(p) {
		out[p] = true
	}
	return out, nil
}

func (f *FTL) checkViews() error {
	for vi, v := range f.views {
		lineage, err := f.lineageOf(v.epoch)
		if err != nil {
			return fmt.Errorf("view %d: %w", vi, err)
		}
		seen := make(map[uint64]uint64)
		var ierr error
		v.fmap.All(func(lba, addr uint64) bool {
			if lba >= uint64(f.cfg.UserSectors) {
				ierr = fmt.Errorf("invariant: view %d maps LBA %d on a %d-sector device", vi, lba, f.cfg.UserSectors)
				return false
			}
			if prev, dup := seen[addr]; dup {
				ierr = fmt.Errorf("invariant: view %d: physical page %d mapped by LBAs %d and %d", vi, addr, prev, lba)
				return false
			}
			seen[addr] = lba
			oob, err := f.Dev.PageOOB(nand.PageAddr(addr))
			if err != nil {
				ierr = fmt.Errorf("invariant: view %d: LBA %d -> unprogrammed page %d: %v", vi, lba, addr, err)
				return false
			}
			h, err := header.Unmarshal(oob)
			if err != nil {
				ierr = fmt.Errorf("invariant: view %d: LBA %d -> page %d header: %v", vi, lba, addr, err)
				return false
			}
			if h.Type != header.TypeData || h.LBA != lba {
				ierr = fmt.Errorf("invariant: view %d: LBA %d -> page %d holds %v/%d", vi, lba, addr, h.Type, h.LBA)
				return false
			}
			if e, ok := f.vstore.Resolve(bitmap.Epoch(h.Epoch)); !ok || !lineage[e] {
				ierr = fmt.Errorf("invariant: view %d (epoch %d): LBA %d -> page %d stamped with foreign epoch %d", vi, v.epoch, lba, addr, h.Epoch)
				return false
			}
			if !f.vstore.Test(v.epoch, int64(addr)) {
				ierr = fmt.Errorf("invariant: view %d: LBA %d -> page %d invalid in epoch %d", vi, lba, addr, v.epoch)
				return false
			}
			return true
		})
		if ierr != nil {
			return ierr
		}
	}
	return nil
}

func (f *FTL) checkValidity() error {
	activeRefs := make(map[int64]bool)
	f.active.fmap.All(func(_, addr uint64) bool {
		activeRefs[int64(addr)] = true
		return true
	})
	live := f.vstore.LiveEpochs()
	// Validity bits live only in bitmap pages some live epoch observes; every
	// other physical page reads invalid in all of them. Sweeping those pages
	// instead of the raw page space keeps this check proportional to touched
	// state, so it still runs in bounded time on a TB-class device whose
	// physical page count dwarfs its working set.
	pageSet := make(map[int64]struct{})
	for _, e := range live {
		for _, idx := range f.vstore.PageIndices(e) {
			pageSet[idx] = struct{}{}
		}
	}
	bitPages := make([]int64, 0, len(pageSet))
	for idx := range pageSet {
		bitPages = append(bitPages, idx)
	}
	sort.Slice(bitPages, func(i, j int) bool { return bitPages[i] < bitPages[j] })

	bpp := f.vstore.BitsPerPage()
	total := f.cfg.Nand.TotalPages()
	for _, bi := range bitPages {
		lo, hi := bi*bpp, (bi+1)*bpp
		if hi > total {
			hi = total
		}
		for p := lo; p < hi; p++ {
			validIn := bitmap.Epoch(0)
			for _, e := range live {
				if f.vstore.Test(e, p) {
					validIn = e
					break
				}
			}
			if validIn == 0 {
				continue
			}
			oob, err := f.Dev.PageOOB(nand.PageAddr(p))
			if err != nil {
				return fmt.Errorf("invariant: page %d valid in epoch %d but not programmed: %v", p, validIn, err)
			}
			h, err := header.Unmarshal(oob)
			if err != nil {
				return fmt.Errorf("invariant: page %d valid in epoch %d with unparseable header: %v", p, validIn, err)
			}
			if h.Type == header.TypeData {
				if _, ok := f.vstore.Resolve(bitmap.Epoch(h.Epoch)); !ok {
					return fmt.Errorf("invariant: valid page %d stamped with epoch %d, which left no heir", p, h.Epoch)
				}
				if f.vstore.Test(f.active.epoch, p) && !activeRefs[p] {
					return fmt.Errorf("invariant: active-valid data page %d (LBA %d) unreferenced by the active map", p, h.LBA)
				}
			}
		}
	}
	return nil
}

func (f *FTL) checkTree() error {
	for _, e := range f.vstore.Epochs() {
		if p, ok := f.vstore.Parent(e); ok && p >= e {
			return fmt.Errorf("invariant: epoch %d inherits from %d, not an older epoch", e, p)
		}
	}
	if e, ok := f.vstore.Reapable(f.reapPinned()); ok {
		return fmt.Errorf("invariant: deleted epoch %d, unpinned with at most one child, was left unreaped", e)
	}
	for _, a := range f.vstore.Aliases() {
		if f.vstore.Exists(a.Epoch) || !f.vstore.Exists(a.Heir) {
			return fmt.Errorf("invariant: alias %d -> %d: the reaped epoch must be gone and its heir present", a.Epoch, a.Heir)
		}
	}
	for _, id := range f.tree.IDs() {
		s, _ := f.tree.Lookup(id)
		if s.Deleted {
			continue
		}
		if !f.vstore.Exists(s.Epoch) || f.vstore.Deleted(s.Epoch) {
			return fmt.Errorf("invariant: snapshot %d epoch %d missing from validity store", id, s.Epoch)
		}
		if got, ok := f.tree.ByEpoch(s.Epoch); !ok || got != s {
			return fmt.Errorf("invariant: snapshot %d not indexed by its epoch %d", id, s.Epoch)
		}
		if s.Parent != nil {
			linked := false
			for _, c := range s.Parent.Children {
				if c == s {
					linked = true
					break
				}
			}
			if !linked {
				return fmt.Errorf("invariant: snapshot %d absent from parent %d's children", id, s.Parent.ID)
			}
			lineage, err := f.lineageOf(s.Epoch)
			if err != nil {
				return fmt.Errorf("snapshot %d: %w", id, err)
			}
			if !lineage[s.Parent.Epoch] {
				return fmt.Errorf("invariant: snapshot %d (epoch %d) does not reach parent epoch %d via the store's parent chain", id, s.Epoch, s.Parent.Epoch)
			}
		}
	}
	for vi, v := range f.views {
		if !f.vstore.Exists(v.epoch) || f.vstore.Deleted(v.epoch) {
			return fmt.Errorf("invariant: view %d epoch %d missing from validity store", vi, v.epoch)
		}
	}
	return nil
}

func (f *FTL) checkPools() error {
	where := make(map[int]string)
	for _, s := range f.FreeSegs {
		if prev, dup := where[s]; dup {
			return fmt.Errorf("invariant: segment %d in %s and free pool", s, prev)
		}
		where[s] = "free"
		if n := f.Dev.ProgrammedInSegment(s); n != 0 {
			return fmt.Errorf("invariant: free segment %d holds %d programmed pages", s, n)
		}
	}
	headUsed := false
	for _, s := range f.UsedSegs {
		if prev, dup := where[s]; dup {
			return fmt.Errorf("invariant: segment %d in %s and used list", s, prev)
		}
		where[s] = "used"
		if s == f.HeadSeg {
			headUsed = true
		}
	}
	retired := f.Dev.RetiredSegments()
	for _, s := range retired {
		if pool, pooled := where[s]; pooled {
			return fmt.Errorf("invariant: retired segment %d still in %s pool", s, pool)
		}
		if s == f.HeadSeg {
			return fmt.Errorf("invariant: log head on retired segment %d", s)
		}
		pps := int64(f.cfg.Nand.PagesPerSegment)
		lo, hi := int64(s)*pps, int64(s+1)*pps
		if n := f.vstore.MergeRange(f.vstore.LiveEpochs(), lo, hi).Count(); n != 0 {
			return fmt.Errorf("invariant: retired segment %d holds %d merged-valid blocks (rescue incomplete)", s, n)
		}
	}
	if len(where)+len(retired) != f.cfg.Nand.Segments {
		return fmt.Errorf("invariant: %d segments tracked + %d retired, device has %d",
			len(where), len(retired), f.cfg.Nand.Segments)
	}
	if !headUsed {
		return fmt.Errorf("invariant: log head segment %d not in used list", f.HeadSeg)
	}
	return nil
}
