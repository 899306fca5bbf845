package bitmap

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Epoch identifies one epoch's validity map within a Store. Epoch numbers
// come from the FTL's monotonically increasing epoch counter.
type Epoch uint64

// DefaultBitsPerPage mirrors a 4 KB bitmap block: 4096 bytes × 8 bits.
const DefaultBitsPerPage = 4096 * 8

// vpage is one CoW unit of a validity map.
type vpage struct {
	words []uint64
}

func (p *vpage) clone() *vpage {
	c := &vpage{words: make([]uint64, len(p.words))}
	copy(c.words, p.words)
	return c
}

// epochMap is one epoch's view of the device validity bitmap: privately
// owned pages plus everything inherited through the parent chain.
type epochMap struct {
	epoch    Epoch
	parent   *epochMap
	children []*epochMap
	deleted  bool
	pages    map[int64]*vpage
}

// Store manages the per-epoch CoW validity maps of one device.
type Store struct {
	nBits       int64
	bitsPerPage int64
	epochs      map[Epoch]*epochMap
	heirs       map[Epoch]Epoch // spliced epoch -> the child that took its place (Resolve)
	live        []Epoch         // the non-deleted epochs, ascending
	liveMaps    []*epochMap     // their maps, index for index
	holding     []int           // Repoint's scratch: indices into liveMaps

	cowCopies  int64 // total bitmap pages copied (Figure 7b's counter)
	livePages  int64 // privately owned pages across all registered epochs
	totalPages int64 // ceil(nBits / bitsPerPage)
	gen        uint64
}

// NewStore creates a store covering nBits physical pages with the given CoW
// page granularity (0 selects DefaultBitsPerPage). The root epoch is created
// implicitly by the first CreateEpoch with parent NoParent.
func NewStore(nBits int64, bitsPerPage int64) *Store {
	if nBits < 0 {
		panic("bitmap: negative store size")
	}
	if bitsPerPage == 0 {
		bitsPerPage = DefaultBitsPerPage
	}
	if bitsPerPage < wordBits || bitsPerPage%wordBits != 0 {
		panic("bitmap: bitsPerPage must be a positive multiple of 64")
	}
	return &Store{
		nBits:       nBits,
		bitsPerPage: bitsPerPage,
		epochs:      make(map[Epoch]*epochMap),
		heirs:       make(map[Epoch]Epoch),
		totalPages:  (nBits + bitsPerPage - 1) / bitsPerPage,
	}
}

// NoParent marks an epoch created without inheritance (the initial epoch of
// a fresh device).
const NoParent = Epoch(1<<64 - 1)

// Len returns the number of bits each epoch's map covers.
func (s *Store) Len() int64 { return s.nBits }

// BitsPerPage returns the CoW granularity.
func (s *Store) BitsPerPage() int64 { return s.bitsPerPage }

// CreateEpoch registers epoch e inheriting the validity state of parent.
// Pass NoParent for the device's first epoch. It is the caller's (FTL's)
// responsibility that the parent stops being modified in the normal write
// path once it has children — only the segment cleaner may touch it, which
// matches the paper's rule that a snapshot's validity bitmap is never
// modified except by block movement.
func (s *Store) CreateEpoch(e, parent Epoch) error {
	if _, dup := s.epochs[e]; dup {
		return fmt.Errorf("bitmap: epoch %d already exists", e)
	}
	var p *epochMap
	if parent != NoParent {
		var ok bool
		p, ok = s.epochs[parent]
		if !ok {
			return fmt.Errorf("bitmap: parent epoch %d does not exist", parent)
		}
	}
	em := &epochMap{epoch: e, parent: p, pages: make(map[int64]*vpage)}
	if p != nil {
		p.children = append(p.children, em)
	}
	s.epochs[e] = em
	i, _ := slices.BinarySearch(s.live, e)
	s.live = slices.Insert(s.live, i, e)
	s.liveMaps = slices.Insert(s.liveMaps, i, em)
	s.gen++
	return nil
}

// DeleteEpoch marks epoch e deleted. Its pages stay reachable for
// descendants that still inherit them (the paper's rule: a deleted epoch's
// bitmap need not be merged unless a descendant inherits it), but e itself
// no longer contributes to merges.
func (s *Store) DeleteEpoch(e Epoch) error {
	em, ok := s.epochs[e]
	if !ok {
		return fmt.Errorf("bitmap: epoch %d does not exist", e)
	}
	if !em.deleted {
		em.deleted = true
		i, _ := slices.BinarySearch(s.live, e)
		s.live = slices.Delete(s.live, i, i+1)
		s.liveMaps = slices.Delete(s.liveMaps, i, i+1)
	}
	s.gen++
	return nil
}

// Gen returns a counter that advances whenever the set of live epochs
// changes (CreateEpoch or DeleteEpoch). Cached merge results built against
// one generation are exact until the generation moves; the cleaner's
// incremental accounting uses this as its staleness stamp.
func (s *Store) Gen() uint64 { return s.gen }

// Deleted reports whether epoch e is marked deleted.
func (s *Store) Deleted(e Epoch) bool {
	em, ok := s.epochs[e]
	return ok && em.deleted
}

// Exists reports whether epoch e is registered.
func (s *Store) Exists(e Epoch) bool {
	_, ok := s.epochs[e]
	return ok
}

// LiveEpochs returns the non-deleted epochs in ascending order: the set the
// cleaner merges over and re-points, whose size follows the live snapshots
// and views, not the number of epochs ever created. The slice is the store's
// own, valid until the next CreateEpoch or DeleteEpoch; callers must not
// modify it.
func (s *Store) LiveEpochs() []Epoch { return s.live }

// Epochs returns every registered epoch number, deleted ones included,
// ascending (the checkpoint, the reaper and the invariant checker walk the
// whole graph; nothing on a hot path should).
func (s *Store) Epochs() []Epoch {
	out := make([]Epoch, 0, len(s.epochs))
	for e := range s.epochs {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Parent returns the epoch e inherits from; ok is false for a root.
func (s *Store) Parent(e Epoch) (parent Epoch, ok bool) {
	if p := s.get(e).parent; p != nil {
		return p.epoch, true
	}
	return NoParent, false
}

// Reaped is one epoch a Reap pass removed. Heir is the child that took over
// its pages, or NoParent when the epoch was dropped with them.
type Reaped struct {
	Epoch, Heir Epoch
}

// Reap forgets the deleted epochs no live epoch needs, except those pinned
// reports, and returns them in the order removed (descending):
//
//   - a deleted leaf is dropped with its pages;
//   - a deleted epoch with one child is spliced out: the child adopts, by
//     pointer, every page it does not own and still inherited from it, and
//     inherits from the grandparent from then on;
//   - a deleted epoch with two or more children stays.
//
// No live epoch's view changes, so Gen does not move and no page is copied
// (the CoW counter stands). Epochs are visited children first — a parent's
// number is below its children's — so one pass reaches the fixed point,
// which is the same whatever order the epochs were deleted or reaped in: the
// live epochs, the pinned ones and the deleted ones with two or more
// surviving children, each inheriting from its nearest surviving ancestor.
// The alias table (Resolve, Aliases) is the same too.
//
// A spliced epoch records only its heir, so a pass costs the epochs the
// store holds, not the history: Resolve follows the chain an alias starts.
func (s *Store) Reap(pinned func(Epoch) bool) []Reaped {
	out := s.reap(pinned)
	for _, r := range out {
		if r.Heir != NoParent {
			s.heirs[r.Epoch] = r.Heir
		}
	}
	return out
}

// Reapable returns the lowest deleted epoch Reap would remove now, if any.
// Reap removes nothing exactly when there is none: an epoch becomes
// removable during a pass only once a child of it was removed.
func (s *Store) Reapable(pinned func(Epoch) bool) (Epoch, bool) {
	for _, e := range s.Epochs() {
		if s.epochs[e].reapable(pinned) {
			return e, true
		}
	}
	return 0, false
}

// reapable is Reap's rule: a deleted epoch with at most one child, unpinned.
func (em *epochMap) reapable(pinned func(Epoch) bool) bool {
	return em.deleted && len(em.children) <= 1 && !pinned(em.epoch)
}

func (s *Store) reap(pinned func(Epoch) bool) []Reaped {
	var out []Reaped
	eps := s.Epochs()
	for i := len(eps) - 1; i >= 0; i-- {
		em := s.epochs[eps[i]]
		if !em.reapable(pinned) {
			continue
		}
		r := Reaped{Epoch: em.epoch, Heir: NoParent}
		var heir *epochMap
		if len(em.children) == 1 {
			heir = em.children[0]
			r.Heir = heir.epoch
			for idx, pg := range em.pages {
				if _, owns := heir.pages[idx]; owns {
					s.livePages--
				} else {
					heir.pages[idx] = pg
				}
			}
			heir.parent = em.parent
		} else {
			s.livePages -= int64(len(em.pages))
		}
		if p := em.parent; p != nil {
			i := slices.Index(p.children, em)
			if heir != nil {
				p.children[i] = heir
			} else {
				p.children = slices.Delete(p.children, i, i+1)
			}
		}
		delete(s.epochs, em.epoch)
		out = append(out, r)
	}
	return out
}

// Resolve maps an epoch number, as data pages on flash keep carrying it, to
// the epoch that stands for it now: itself while registered, the end of its
// chain of heirs once spliced out, and ok=false once that chain ends in a
// dropped epoch or if it never existed. The walk compresses the chain: every
// alias on it names the end afterwards, or goes with a dropped end.
func (s *Store) Resolve(e Epoch) (Epoch, bool) {
	end, spliced := s.heirs[e]
	if !spliced {
		_, ok := s.epochs[e]
		return e, ok
	}
	for {
		next, ok := s.heirs[end]
		if !ok {
			break
		}
		end = next
	}
	_, ok := s.epochs[end]
	for at := e; at != end; {
		next := s.heirs[at]
		if ok {
			s.heirs[at] = end
		} else {
			delete(s.heirs, at)
		}
		at = next
	}
	if !ok {
		return e, false
	}
	return end, true
}

// Aliases returns the alias table, ascending by reaped epoch: every epoch
// spliced out so far, each naming the registered epoch it resolves to now.
// An alias whose chain ends in a dropped epoch is left out (and forgotten).
func (s *Store) Aliases() []Reaped {
	out := make([]Reaped, 0, len(s.heirs))
	for e := range s.heirs {
		if h, ok := s.Resolve(e); ok {
			out = append(out, Reaped{Epoch: e, Heir: h})
		}
	}
	slices.SortFunc(out, func(a, b Reaped) int { return cmp.Compare(a.Epoch, b.Epoch) })
	return out
}

// ImportAlias restores one alias table entry (the checkpoint-restore
// inverse of Aliases): e must be unregistered and heir registered.
func (s *Store) ImportAlias(e, heir Epoch) error {
	if _, ok := s.epochs[e]; ok {
		return fmt.Errorf("bitmap: alias for registered epoch %d", e)
	}
	if _, ok := s.epochs[heir]; !ok {
		return fmt.Errorf("bitmap: alias %d names unknown heir %d", e, heir)
	}
	if _, dup := s.heirs[e]; dup {
		return fmt.Errorf("bitmap: duplicate alias for epoch %d", e)
	}
	s.heirs[e] = heir
	return nil
}

func (s *Store) get(e Epoch) *epochMap {
	em, ok := s.epochs[e]
	if !ok {
		panic(fmt.Sprintf("bitmap: unknown epoch %d", e))
	}
	return em
}

func (s *Store) checkBit(i int64) {
	if i < 0 || i >= s.nBits {
		panic(fmt.Sprintf("bitmap: bit %d out of range [0,%d)", i, s.nBits))
	}
}

// findPage walks e's inheritance chain for the page holding bit pageIdx and
// returns the page (nil when no epoch on the chain owns it, meaning all
// zero) and whether e itself owns it.
func (em *epochMap) findPage(pageIdx int64) (p *vpage, owned bool) {
	for m := em; m != nil; m = m.parent {
		if pg, ok := m.pages[pageIdx]; ok {
			return pg, m == em
		}
	}
	return nil, false
}

// PageIndices returns the ascending indices of the bitmap pages epoch e can
// observe — privately owned or inherited through the parent chain. Every bit
// outside these pages reads zero, so a sweep over a sparse epoch can restrict
// itself to these pages instead of probing the full bit space (which on a
// TB-class device is hundreds of millions of bits, nearly all untouched).
func (s *Store) PageIndices(e Epoch) []int64 {
	seen := make(map[int64]struct{})
	for m := s.get(e); m != nil; m = m.parent {
		for idx := range m.pages {
			seen[idx] = struct{}{}
		}
	}
	out := make([]int64, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Test reports bit i as seen by epoch e.
func (s *Store) Test(e Epoch, i int64) bool {
	s.checkBit(i)
	return s.test(s.get(e), i)
}

func (s *Store) test(em *epochMap, i int64) bool {
	pg, _ := em.findPage(i / s.bitsPerPage)
	if pg == nil {
		return false
	}
	off := i % s.bitsPerPage
	return pg.words[off/wordBits]&(1<<uint(off%wordBits)) != 0
}

// ownPage returns e's privately owned page for pageIdx, copying an inherited
// page (a CoW event) or allocating a zero page as needed. copied reports
// whether this call performed a copy of inherited state.
func (s *Store) ownPage(em *epochMap, pageIdx int64) (pg *vpage, copied bool) {
	pg, owned := em.findPage(pageIdx)
	if owned {
		return pg, false
	}
	if pg == nil {
		pg = &vpage{words: make([]uint64, s.bitsPerPage/wordBits)}
		em.pages[pageIdx] = pg
		s.livePages++
		return pg, false
	}
	cp := pg.clone()
	em.pages[pageIdx] = cp
	s.cowCopies++
	s.livePages++
	return cp, true
}

// pushDown pins the current view of pageIdx into every immediate child of em
// that does not privately own it yet. A child's view was frozen when the
// child was created; without this, mutating em's copy (the segment cleaner
// re-pointing a frozen snapshot's bits) would retroactively change what
// every sharing descendant — including the active epoch — observes.
// Grandchildren resolve through the child afterwards, so one level suffices.
func (s *Store) pushDown(em *epochMap, pageIdx int64) {
	if len(em.children) == 0 {
		return
	}
	cur, _ := em.findPage(pageIdx)
	for _, c := range em.children {
		if _, owns := c.pages[pageIdx]; owns {
			continue
		}
		if cur == nil {
			c.pages[pageIdx] = &vpage{words: make([]uint64, s.bitsPerPage/wordBits)}
		} else {
			c.pages[pageIdx] = cur.clone()
			s.cowCopies++
		}
		s.livePages++
	}
}

// Set sets bit i in epoch e, copying the containing page on first
// modification of inherited state. It reports whether a CoW copy occurred.
func (s *Store) Set(e Epoch, i int64) (cow bool) {
	s.checkBit(i)
	return s.set(s.get(e), i)
}

func (s *Store) set(em *epochMap, i int64) (cow bool) {
	s.pushDown(em, i/s.bitsPerPage)
	pg, copied := s.ownPage(em, i/s.bitsPerPage)
	off := i % s.bitsPerPage
	pg.words[off/wordBits] |= 1 << uint(off%wordBits)
	return copied
}

// Clear clears bit i in epoch e, with the same CoW behaviour as Set.
func (s *Store) Clear(e Epoch, i int64) (cow bool) {
	s.checkBit(i)
	return s.clear(s.get(e), i)
}

func (s *Store) clear(em *epochMap, i int64) (cow bool) {
	pageIdx := i / s.bitsPerPage
	// Clearing a bit that is already 0 everywhere on the chain needs no page.
	pg, owned := em.findPage(pageIdx)
	if pg == nil {
		return false
	}
	s.pushDown(em, pageIdx)
	if owned {
		off := i % s.bitsPerPage
		pg.words[off/wordBits] &^= 1 << uint(off%wordBits)
		return false
	}
	pg, copied := s.ownPage(em, pageIdx)
	off := i % s.bitsPerPage
	pg.words[off/wordBits] &^= 1 << uint(off%wordBits)
	return copied
}

// Repoint moves one block's validity from bit old to bit dst in every live
// epoch that holds it — the segment cleaner's fix-up for a block it copied
// forward (paper §5.4.3) — and returns those epochs, ascending, appended to
// holders[:0]. It is Test, then Clear and Set, per live epoch, without an
// epoch lookup apiece: its cost follows the live epochs, not the history.
// The holders are found before anything is flipped and flipped in ascending
// order, which fixes which epochs pay the CoW push-down copies.
func (s *Store) Repoint(old, dst int64, holders []Epoch) []Epoch {
	s.checkBit(old)
	s.checkBit(dst)
	s.holding = s.holding[:0]
	for i, em := range s.liveMaps {
		if s.test(em, old) {
			s.holding = append(s.holding, i)
		}
	}
	holders = holders[:0]
	for _, i := range s.holding {
		s.clear(s.liveMaps[i], old)
		s.set(s.liveMaps[i], dst)
		holders = append(holders, s.live[i])
	}
	return holders
}

// SetRange sets bits [lo, hi) in epoch e with at most one CoW copy per
// touched bitmap page, and returns the number of CoW copies performed. A
// run of per-bit Set calls over the same range performs exactly the same
// copies (a page is copied at most once per epoch, on first touch), so the
// count — and therefore the FTL's CoWPageCost charge — is identical; only
// the host-side work drops from per-bit to per-word.
func (s *Store) SetRange(e Epoch, lo, hi int64) (cows int) {
	if hi <= lo {
		return 0
	}
	s.checkBit(lo)
	s.checkBit(hi - 1)
	em := s.get(e)
	for pageIdx := lo / s.bitsPerPage; pageIdx*s.bitsPerPage < hi; pageIdx++ {
		s.pushDown(em, pageIdx)
		pg, copied := s.ownPage(em, pageIdx)
		if copied {
			cows++
		}
		pageStart := pageIdx * s.bitsPerPage
		from, to := lo, hi
		if pageStart > from {
			from = pageStart
		}
		if end := pageStart + s.bitsPerPage; end < to {
			to = end
		}
		setWordRange(pg.words, from-pageStart, to-pageStart)
	}
	return cows
}

// ClearRange clears bits [lo, hi) in epoch e with the same CoW behaviour as
// SetRange. Like Clear, a page with no owner anywhere on the inheritance
// chain (all-zero view) is skipped without a pushdown or a copy.
func (s *Store) ClearRange(e Epoch, lo, hi int64) (cows int) {
	if hi <= lo {
		return 0
	}
	s.checkBit(lo)
	s.checkBit(hi - 1)
	em := s.get(e)
	for pageIdx := lo / s.bitsPerPage; pageIdx*s.bitsPerPage < hi; pageIdx++ {
		pg, owned := em.findPage(pageIdx)
		if pg == nil {
			continue
		}
		s.pushDown(em, pageIdx)
		if !owned {
			var copied bool
			pg, copied = s.ownPage(em, pageIdx)
			if copied {
				cows++
			}
		}
		pageStart := pageIdx * s.bitsPerPage
		from, to := lo, hi
		if pageStart > from {
			from = pageStart
		}
		if end := pageStart + s.bitsPerPage; end < to {
			to = end
		}
		clearWordRange(pg.words, from-pageStart, to-pageStart)
	}
	return cows
}

// MergeRange ORs the validity of bits [lo, hi) across the given epochs
// (skipping deleted ones) into a fresh Bitmap of length hi-lo. This is the
// segment cleaner's merged map (paper Figure 6). The cost of this call —
// proportional to len(epochs) × (hi-lo) — is exactly the "validity merge"
// overhead measured in the paper's Table 4.
func (s *Store) MergeRange(epochs []Epoch, lo, hi int64) *Bitmap {
	return s.MergeRangeInto(epochs, lo, hi, nil)
}

// MergeRangeInto is MergeRange reusing out as the destination buffer when it
// is non-nil and of length hi-lo (it is zeroed first); otherwise a fresh
// bitmap is allocated. The cleaner's cached-merge rebuilds call this to
// avoid re-allocating a segment-sized bitmap per rebuild.
func (s *Store) MergeRangeInto(epochs []Epoch, lo, hi int64, out *Bitmap) *Bitmap {
	if lo < 0 || hi > s.nBits || lo > hi {
		panic(fmt.Sprintf("bitmap: merge range [%d,%d) out of [0,%d)", lo, hi, s.nBits))
	}
	if out == nil || out.n != hi-lo {
		out = New(hi - lo)
	} else {
		out.Reset()
	}
	s.OrRangeInto(epochs, lo, hi, out)
	return out
}

// OrRangeInto ORs the validity of bits [lo, hi) across the given epochs
// (skipping deleted ones) into out, which must have length hi-lo. Unlike
// MergeRangeInto it does not zero out first, so callers can layer epoch
// groups into one merged map.
func (s *Store) OrRangeInto(epochs []Epoch, lo, hi int64, out *Bitmap) {
	if out.n != hi-lo {
		panic(fmt.Sprintf("bitmap: OrRangeInto buffer length %d != range %d", out.n, hi-lo))
	}
	for _, e := range epochs {
		if em := s.get(e); !em.deleted {
			s.orEpoch(em, lo, hi, out)
		}
	}
}

// ReadRangeInto overwrites out, which must have length hi-lo, with bits
// [lo, hi) exactly as epoch e sees them — Test over the range, a CoW page's
// words at a time. Like Test and unlike the merges it answers for a deleted
// epoch too: a snapshot's own bits stay the oracle of what it holds whatever
// became of the epoch since.
func (s *Store) ReadRangeInto(e Epoch, lo, hi int64, out *Bitmap) {
	if lo < 0 || hi > s.nBits || out.n != hi-lo {
		panic(fmt.Sprintf("bitmap: ReadRangeInto [%d,%d) of [0,%d) into %d bits", lo, hi, s.nBits, out.n))
	}
	out.Reset()
	s.orEpoch(s.get(e), lo, hi, out)
}

// XorRangeInto overwrites out, which must have length hi-lo, with the bits
// [lo, hi) valid in exactly one of epochs a and b, and reports whether any
// is. A bitmap page both epochs resolve to the same copy of — inherited from
// a common ancestor, or absent from both chains — contributes nothing and
// its words are not read. Like ReadRangeInto it answers for deleted epochs.
func (s *Store) XorRangeInto(a, b Epoch, lo, hi int64, out *Bitmap) bool {
	if lo < 0 || hi > s.nBits || out.n != hi-lo {
		panic(fmt.Sprintf("bitmap: XorRangeInto [%d,%d) of [0,%d) into %d bits", lo, hi, s.nBits, out.n))
	}
	out.Reset()
	ema, emb := s.get(a), s.get(b)
	var seen uint64 // nonzero once a bit is set
	for pageIdx := lo / s.bitsPerPage; pageIdx*s.bitsPerPage < hi; pageIdx++ {
		pa, _ := ema.findPage(pageIdx)
		pb, _ := emb.findPage(pageIdx)
		if pa == pb {
			continue
		}
		pageStart := pageIdx * s.bitsPerPage
		from, to := max(lo, pageStart), min(hi, pageStart+s.bitsPerPage)
		word := func(bit int64) uint64 { // the page words' XOR holding bit
			var w uint64
			if pa != nil {
				w = pa.words[(bit-pageStart)/wordBits]
			}
			if pb != nil {
				w ^= pb.words[(bit-pageStart)/wordBits]
			}
			return w
		}
		if lo%wordBits != 0 {
			for i := from; i < to; i++ {
				if word(i)&(1<<uint(i%wordBits)) != 0 {
					out.Set(i - lo)
					seen = 1
				}
			}
			continue
		}
		for bit := from; bit < to; bit += wordBits {
			w := word(bit)
			if rem := to - bit; rem < wordBits {
				w &= (1 << uint(rem)) - 1 // clip a partial trailing word
			}
			out.words[(bit-lo)/wordBits] = w
			seen |= w
		}
	}
	return seen != 0
}

// orEpoch ORs epoch em's bits [lo, hi) into out: whole words when the range
// starts on a word boundary (every segment of a geometry with 64 | pages per
// segment), bit by bit otherwise.
func (s *Store) orEpoch(em *epochMap, lo, hi int64, out *Bitmap) {
	if lo%wordBits == 0 {
		s.mergeWords(em, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		pg, _ := em.findPage(i / s.bitsPerPage)
		if pg == nil {
			// Skip the rest of this page's span within the range.
			i = (i/s.bitsPerPage+1)*s.bitsPerPage - 1
			continue
		}
		off := i % s.bitsPerPage
		if pg.words[off/wordBits]&(1<<uint(off%wordBits)) != 0 {
			out.Set(i - lo)
		}
	}
}

// mergeWords ORs epoch em's bits in the word-aligned range [lo, hi) into
// out, a whole CoW page's words at a time. bitsPerPage is a multiple of 64
// by construction, so page boundaries are word boundaries.
func (s *Store) mergeWords(em *epochMap, out *Bitmap, lo, hi int64) {
	for pageIdx := lo / s.bitsPerPage; pageIdx*s.bitsPerPage < hi; pageIdx++ {
		pg, _ := em.findPage(pageIdx)
		if pg == nil {
			continue
		}
		pageStart := pageIdx * s.bitsPerPage
		from := lo
		if pageStart > from {
			from = pageStart
		}
		to := pageStart + s.bitsPerPage
		if to > hi {
			to = hi
		}
		for bit := from; bit < to; bit += wordBits {
			w := pg.words[(bit-pageStart)/wordBits]
			if rem := to - bit; rem < wordBits {
				w &= (1 << uint(rem)) - 1 // clip a partial trailing word
			}
			out.words[(bit-lo)/wordBits] |= w
		}
	}
}

// CountValid returns the number of set bits in [lo, hi) for epoch e,
// popcounting whole CoW-page words where the range allows it.
func (s *Store) CountValid(e Epoch, lo, hi int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.nBits {
		hi = s.nBits
	}
	if lo >= hi {
		return 0
	}
	em := s.get(e)
	n := 0
	for pageIdx := lo / s.bitsPerPage; pageIdx*s.bitsPerPage < hi; pageIdx++ {
		pg, _ := em.findPage(pageIdx)
		if pg == nil {
			continue
		}
		pageStart := pageIdx * s.bitsPerPage
		from := lo
		if pageStart > from {
			from = pageStart
		}
		to := pageStart + s.bitsPerPage
		if to > hi {
			to = hi
		}
		// Popcount full words; mask the partial boundary words.
		for bit := from; bit < to; {
			w := pg.words[(bit-pageStart)/wordBits]
			start := bit % wordBits
			span := wordBits - start
			if rem := to - bit; rem < span {
				span = rem
			}
			w >>= uint(start)
			if span < wordBits {
				w &= (1 << uint(span)) - 1
			}
			n += bits.OnesCount64(w)
			bit += span
		}
	}
	return n
}

// CountSpans returns, for every span of span bits from bit 0 up (the last
// one cut at Len), the number of bits epoch e holds in it: counts[i] is
// CountValid(e, i*span, (i+1)*span). It is one pass over the CoW pages: a
// page absent from e's chain costs one lookup and is not read, and the
// others are popcounted a whole word at a time. Like ReadRangeInto it
// answers for a deleted epoch too.
func (s *Store) CountSpans(e Epoch, span int64) []int {
	if span <= 0 {
		panic(fmt.Sprintf("bitmap: CountSpans span %d", span))
	}
	counts := make([]int, (s.nBits+span-1)/span)
	em := s.get(e)
	for pageIdx := int64(0); pageIdx < s.totalPages; pageIdx++ {
		pg, _ := em.findPage(pageIdx)
		if pg == nil {
			continue
		}
		bit := pageIdx * s.bitsPerPage
		for _, w := range pg.words {
			if rem := s.nBits - bit; rem < wordBits {
				w &= 1<<uint(max(rem, 0)) - 1 // no span holds bits past Len
			}
			// Bit 0 of w is bit at; a word straddling a span edge is split.
			for at := bit; w != 0; {
				i := at / span
				n := (i+1)*span - at
				if n >= wordBits {
					counts[i] += bits.OnesCount64(w)
					break
				}
				counts[i] += bits.OnesCount64(w & (1<<uint(n) - 1))
				w >>= uint(n)
				at += n
			}
			bit += wordBits
		}
	}
	return counts
}

// OwnedPage is one privately owned CoW page of an epoch's validity map:
// the unit of the epoch's delta against its parent, and what a checkpoint
// serializes per epoch.
type OwnedPage struct {
	PageIdx int64
	Words   []uint64
}

// ExportEpoch returns copies of epoch e's privately owned pages in
// ascending page order. Inherited pages are not exported — they belong to
// an ancestor and re-importing every epoch of a tree in topological order
// reproduces the full inheritance structure.
func (s *Store) ExportEpoch(e Epoch) []OwnedPage {
	em := s.get(e)
	out := make([]OwnedPage, 0, len(em.pages))
	for idx, pg := range em.pages {
		out = append(out, OwnedPage{PageIdx: idx, Words: append([]uint64(nil), pg.words...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PageIdx < out[j].PageIdx })
	return out
}

// ImportPage installs one privately owned page into epoch e (the
// checkpoint-restore inverse of ExportEpoch). The words slice is copied.
// Import happens during recovery, before any cleaner accounting is built
// on the store; it deliberately does not advance Gen.
func (s *Store) ImportPage(e Epoch, pageIdx int64, words []uint64) error {
	em := s.get(e)
	if int64(len(words)) != s.bitsPerPage/wordBits {
		return fmt.Errorf("bitmap: import page has %d words, want %d", len(words), s.bitsPerPage/wordBits)
	}
	if pageIdx < 0 || pageIdx >= s.totalPages {
		return fmt.Errorf("bitmap: import page index %d out of [0,%d)", pageIdx, s.totalPages)
	}
	if _, dup := em.pages[pageIdx]; dup {
		return fmt.Errorf("bitmap: epoch %d already owns page %d", e, pageIdx)
	}
	em.pages[pageIdx] = &vpage{words: append([]uint64(nil), words...)}
	s.livePages++
	return nil
}

// CoWCopies returns the cumulative count of bitmap-page copies (the solid
// grey line of the paper's Figure 7).
func (s *Store) CoWCopies() int64 { return s.cowCopies }

// ResetCoWCounter zeroes the CoW copy counter (experiments reset it between
// phases).
func (s *Store) ResetCoWCounter() { s.cowCopies = 0 }

// OwnedPages returns how many bitmap pages epoch e privately owns.
func (s *Store) OwnedPages(e Epoch) int { return len(s.get(e).pages) }

// MemoryBytes estimates the memory consumed by all privately owned pages.
func (s *Store) MemoryBytes() int64 {
	return s.livePages * (s.bitsPerPage / 8)
}

// TotalPages returns how many CoW pages a full map comprises (the memory a
// naive full-copy-per-snapshot design would pay per snapshot).
func (s *Store) TotalPages() int64 { return s.totalPages }
