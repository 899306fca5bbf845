// Package mapcache implements the flash-resident paged forward map
// (DFTL-style, after Dayan & Bonnet's flash-resident page-mapping FTLs).
//
// The forward map is cut into fixed-size translation pages of K
// consecutive LBA slots (K a power of two chosen so one encoded page fits
// a NAND sector). Translation pages live on flash in ordinary log pages
// (header.TypeMapPage); a bounded CLOCK cache keeps the hot ones resident
// in host RAM, and a global translation directory (GTD) — pinned in RAM
// and persisted through the checkpoint — maps each translation-page index
// to its newest flash address. Dirty resident pages are written back
// through the log head by the owning FTL; this package only tracks state.
//
// Map is the forward-map interface the FTLs hold. Two types satisfy it:
//
//   - *ftlmap.Tree, the plain in-RAM B+tree;
//   - *Cache, the translation-page cache, bounded to a residency limit of
//     at least one page. While the whole map fits the limit no page is
//     ever evicted, so nothing is written to flash until the owner
//     checkpoints.
//
// A slot is a 4-byte page address, in RAM and on flash: every shard
// geometry has fewer than 2^32 − 1 pages (logcore refuses paged mode on
// one that does not), so the wider entry would only halve how many LBAs a
// translation page — and therefore the cache — covers. The Map and Cache
// API keeps 64-bit keys and values and converts at the boundary.
//
// The on-flash wire format reuses the ckpt sectioned codec: one encoded
// stream per translation page (checkpoint ID field carries the page
// index), zero-padded to the sector size.
package mapcache

import (
	"encoding/binary"
	"fmt"
	"sort"

	"iosnap/internal/codec"
	"iosnap/internal/ftlmap"
)

// Unmapped is the slot sentinel for an LBA with no mapping; every mapped
// slot holds a page address below it.
const Unmapped = ^uint32(0)

// FaultFunc resolves a translation-page fault host-side: given the page
// index and its flash address (from the GTD), it returns the encoded page
// stored there, which the cache decodes. The owning FTL installs one
// reading via nand.PageData; timed foreground faults instead go through
// the FTL's charged batch read and land via Absorb.
type FaultFunc func(idx, addr uint64) ([]byte, error)

// GTDEnt is one global-translation-directory entry: translation page idx
// lives at flash address Addr and holds Live mappings.
type GTDEnt struct {
	Idx  uint64
	Addr uint64
	Live int
}

// CacheStats counts translation-page cache traffic.
type CacheStats struct {
	Hits      int64 // touched translation pages served from RAM (or empty)
	Misses    int64 // touched translation pages faulted from flash
	Evictions int64 // resident pages evicted by the CLOCK policy
	Flushed   int64 // dirty pages written back to the log
}

// SlotsFor returns the translation-page slot count for a sector size: the
// largest power of two whose encoded page (codec framing + 4 bytes per
// slot) fits one sector. 512-byte sectors give 64 slots; 4K gives 512.
func SlotsFor(sectorSize int) int {
	if sectorSize < MinSectorSize {
		panic(fmt.Sprintf("mapcache: sector size %d too small for a translation page", sectorSize))
	}
	k := 1
	for 2*k*4+pageOverhead <= sectorSize {
		k *= 2
	}
	return k
}

// MinSectorSize is the smallest sector a translation page fits: one slot.
const MinSectorSize = 4 + pageOverhead

// pageOverhead is the codec frame around the slot array plus the page's
// idx and count fields.
const pageOverhead = codec.Overhead + pageHead

// pageHead is the page's idx and count fields.
const pageHead = 8 + 4

// EncodePage encodes one translation page for programming into dst, a
// sector-sized buffer the caller owns and may reuse once the page is
// programmed: one codec.MapPage frame of [u64 idx][u32 n][n × u32 page
// address], sealed in place and zero-padded to the end of dst. It
// allocates nothing.
func EncodePage(dst []byte, idx uint64, slots []uint32) {
	if pageOverhead+4*len(slots) > len(dst) {
		panic(fmt.Sprintf("mapcache: %d-slot translation page exceeds sector %d", len(slots), len(dst)))
	}
	w := codec.Writer{B: dst[:0]}
	start := w.Begin(codec.MapPage)
	w.U64(idx)
	w.U32(uint32(len(slots)))
	for _, s := range slots {
		w.U32(s)
	}
	w.End(start)
	clear(dst[len(w.B):])
}

// DecodePage decodes a translation page payload into dst's backing array
// (growing it only if it is too short) and returns the page index and the
// slots. The frame's explicit length makes the sector padding harmless;
// anything else — another frame type, a body longer or shorter than its
// count — is an error.
func DecodePage(payload []byte, dst []uint32) (idx uint64, slots []uint32, err error) {
	typ, b, _, err := codec.Open(payload, len(payload))
	if err != nil {
		return 0, nil, err
	}
	if typ != codec.MapPage {
		return 0, nil, fmt.Errorf("mapcache: translation page frame type %d, want %d", typ, codec.MapPage)
	}
	if len(b) < pageHead {
		return 0, nil, fmt.Errorf("mapcache: translation page body %d bytes", len(b))
	}
	idx = binary.LittleEndian.Uint64(b)
	n := binary.LittleEndian.Uint32(b[8:])
	if n == 0 || uint64(len(b)-pageHead) != 4*uint64(n) {
		return 0, nil, fmt.Errorf("mapcache: translation page %d slot count %d for %d bytes", idx, n, len(b)-pageHead)
	}
	slots = dst[:0]
	for off := pageHead; off < len(b); off += 4 {
		slots = append(slots, binary.LittleEndian.Uint32(b[off:]))
	}
	return idx, slots, nil
}

// slot converts a mapped value to its 4-byte slot. Every caller inserts a
// page address, which fits by the geometry check, so one that does not is
// a bug.
func slot(val uint64) uint32 {
	if val >= uint64(Unmapped) {
		panic(fmt.Sprintf("mapcache: value %d does not fit a 4-byte slot", val))
	}
	return uint32(val)
}

// tpage is one resident translation page.
type tpage struct {
	idx     uint64
	slots   []uint32 // Unmapped = no translation
	live    int      // non-Unmapped slots
	dirty   bool     // diverged from the flash copy (or never flushed)
	ref     bool     // CLOCK reference bit
	ringIdx int
}

// maxSpare bounds the evicted pages a cache keeps for reuse. Foreground
// operations install before they evict, a handful of pages at a time; a
// larger pool would only hold RAM after a mass eviction (a full-scan
// recovery shrinking to its limit).
const maxSpare = 8

// Cache is the paged forward map: resident translation pages, the CLOCK
// ring over them, and the RAM-pinned GTD of flash-resident pages.
type Cache struct {
	slotsPer int
	shift    uint
	mask     uint64
	limit    int // residency bound in pages (>= 1)

	pages map[uint64]*tpage
	ring  []*tpage
	hand  int
	gtd   map[uint64]GTDEnt
	size  int // live mappings across resident and flash-only pages

	spare []*tpage // evicted pages, recycled by the next install
	fault FaultFunc
	stats CacheStats
}

// NewCache creates a paged map with slotsPer slots per translation page
// (a power of two, from SlotsFor) and a residency limit of at least one
// page. fault serves host-side page faults; it may be nil only if the map
// is never populated from flash.
func NewCache(slotsPer, limit int, fault FaultFunc) *Cache {
	if slotsPer <= 0 || slotsPer&(slotsPer-1) != 0 {
		panic(fmt.Sprintf("mapcache: slots per page %d not a power of two", slotsPer))
	}
	if limit < 1 {
		panic(fmt.Sprintf("mapcache: residency limit %d below one page", limit))
	}
	shift := uint(0)
	for 1<<shift != slotsPer {
		shift++
	}
	return &Cache{
		slotsPer: slotsPer,
		shift:    shift,
		mask:     uint64(slotsPer - 1),
		limit:    limit,
		pages:    make(map[uint64]*tpage),
		gtd:      make(map[uint64]GTDEnt),
		fault:    fault,
	}
}

// SlotsPerPage returns K.
func (c *Cache) SlotsPerPage() int { return c.slotsPer }

// Limit returns the residency limit in pages.
func (c *Cache) Limit() int { return c.limit }

// Resident returns the number of resident translation pages.
func (c *Cache) Resident() int { return len(c.pages) }

// PageOf returns the translation-page index covering lba.
func (c *Cache) PageOf(lba uint64) uint64 { return lba >> c.shift }

// Stats returns the cache traffic counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// NoteEviction / NoteFlushed let the owning FTL attribute policy events
// (it drives eviction and owns the write-back I/O).
func (c *Cache) NoteEviction()     { c.stats.Evictions++ }
func (c *Cache) NoteFlushed(n int) { c.stats.Flushed += int64(n) }

// peek returns the page at idx if it is resident or can be faulted from
// flash host-side; nil when no such page exists anywhere.
func (c *Cache) peek(idx uint64) *tpage {
	if tp := c.pages[idx]; tp != nil {
		tp.ref = true
		return tp
	}
	ent, ok := c.gtd[idx]
	if !ok {
		return nil
	}
	if c.fault == nil {
		panic(fmt.Sprintf("mapcache: fault of translation page %d with no fault handler", idx))
	}
	payload, err := c.fault(idx, ent.Addr)
	var tp *tpage
	if err == nil {
		tp, err = c.load(idx, payload)
	}
	if err != nil {
		panic(fmt.Sprintf("mapcache: translation page %d at addr %d unreadable: %v", idx, ent.Addr, err))
	}
	c.stats.Misses++
	return tp
}

// mutable is peek that materializes an empty page when none exists (the
// insert path; an absent page simply means "no mappings in this range").
func (c *Cache) mutable(idx uint64) *tpage {
	if tp := c.peek(idx); tp != nil {
		return tp
	}
	tp := c.newPage()
	for i := range tp.slots {
		tp.slots[i] = Unmapped
	}
	c.install(idx, tp)
	tp.dirty = true
	return tp
}

// newPage returns a page with a slot array of K slots, recycled from an
// evicted page when one is spare.
func (c *Cache) newPage() *tpage {
	if n := len(c.spare); n > 0 {
		tp := c.spare[n-1]
		c.spare = c.spare[:n-1]
		return tp
	}
	return &tpage{slots: make([]uint32, c.slotsPer)}
}

// recycle keeps a page that just left the cache for the next newPage.
func (c *Cache) recycle(tp *tpage) {
	if len(c.spare) < maxSpare {
		c.spare = append(c.spare, tp)
	}
}

// decode decodes the encoded page idx into dst's backing array, refusing
// one that names another page or holds other than K slots.
func (c *Cache) decode(idx uint64, payload []byte, dst []uint32) ([]uint32, error) {
	got, slots, err := DecodePage(payload, dst)
	if err == nil && got != idx {
		err = fmt.Errorf("mapcache: translation page %d decoded as %d", idx, got)
	}
	if err == nil && len(slots) != c.slotsPer {
		err = fmt.Errorf("mapcache: translation page %d has %d slots, want %d", idx, len(slots), c.slotsPer)
	}
	return slots, err
}

// load decodes an encoded page into a recycled slot array and installs it.
func (c *Cache) load(idx uint64, payload []byte) (*tpage, error) {
	tp := c.newPage()
	if _, err := c.decode(idx, payload, tp.slots); err != nil {
		c.recycle(tp)
		return nil, err
	}
	c.install(idx, tp)
	return tp, nil
}

// install makes a page resident (ref set, clean) over its filled slots.
func (c *Cache) install(idx uint64, tp *tpage) {
	live := 0
	for _, s := range tp.slots {
		if s != Unmapped {
			live++
		}
	}
	*tp = tpage{idx: idx, slots: tp.slots, live: live, ref: true, ringIdx: len(c.ring)}
	c.pages[idx] = tp
	c.ring = append(c.ring, tp)
}

// Absorb decodes and installs a page read by the FTL's charged foreground
// fault (a page already resident is left as it is).
func (c *Cache) Absorb(idx uint64, payload []byte) error {
	if c.pages[idx] != nil {
		return nil
	}
	_, err := c.load(idx, payload)
	return err
}

// AddrOf returns the flash address of translation page idx, if on flash.
func (c *Cache) AddrOf(idx uint64) (uint64, bool) {
	ent, ok := c.gtd[idx]
	return ent.Addr, ok
}

// TouchRange walks the translation pages covering n consecutive LBAs from
// lba, setting reference bits and counting hits/misses. Non-resident
// pages that are on flash are appended to miss (ascending) for the caller
// to fault with a charged batch read; absent pages (no mappings there)
// and resident pages count as hits.
func (c *Cache) TouchRange(lba uint64, n int, miss []uint64) []uint64 {
	if n <= 0 {
		return miss
	}
	lo, hi := lba>>c.shift, (lba+uint64(n)-1)>>c.shift
	for idx := lo; ; idx++ {
		if tp := c.pages[idx]; tp != nil {
			tp.ref = true
			c.stats.Hits++
		} else if _, ok := c.gtd[idx]; ok {
			c.stats.Misses++
			miss = append(miss, idx)
		} else {
			c.stats.Hits++
		}
		if idx == hi {
			return miss
		}
	}
}

// MissingInRange is TouchRange for sparse spans (trims): it visits only
// translation pages that exist — resident or in the GTD — inside
// [lo, hi] (page indices, inclusive), so a discard over a huge hole
// costs O(map) instead of O(range). Resident pages get their reference
// bit set and count as hits; flash-only pages are appended to miss
// (ascending) and count as misses.
func (c *Cache) MissingInRange(lo, hi uint64, miss []uint64) []uint64 {
	for idx, tp := range c.pages {
		if idx >= lo && idx <= hi {
			tp.ref = true
			c.stats.Hits++
		}
	}
	for idx := range c.gtd {
		if idx >= lo && idx <= hi && c.pages[idx] == nil {
			c.stats.Misses++
			miss = append(miss, idx)
		}
	}
	sort.Slice(miss, func(i, j int) bool { return miss[i] < miss[j] })
	return miss
}

// ClockVictim runs the CLOCK hand to the next eviction candidate whose
// index skip doesn't reject, clearing reference bits as it passes. It
// returns ok=false when every resident page is referenced-and-skipped
// twice over (nothing evictable).
func (c *Cache) ClockVictim(skip func(idx uint64) bool) (idx uint64, ok bool) {
	for step := 0; step < 2*len(c.ring)+1; step++ {
		if len(c.ring) == 0 {
			return 0, false
		}
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		tp := c.ring[c.hand]
		if skip != nil && skip(tp.idx) {
			c.hand++
			continue
		}
		if tp.ref {
			tp.ref = false
			c.hand++
			continue
		}
		return tp.idx, true
	}
	return 0, false
}

// PageState reports a resident page's write-back state.
func (c *Cache) PageState(idx uint64) (dirty bool, live int, resident bool) {
	tp := c.pages[idx]
	if tp == nil {
		return false, 0, false
	}
	return tp.dirty, tp.live, true
}

// Slots returns a resident page's slot array (caller must not modify it,
// nor keep it past the page's eviction, which recycles the array).
func (c *Cache) Slots(idx uint64) []uint32 {
	tp := c.pages[idx]
	if tp == nil {
		panic(fmt.Sprintf("mapcache: Slots of non-resident page %d", idx))
	}
	return tp.slots
}

// MarkFlushed records that idx's current content landed on flash at addr:
// the page becomes clean and the GTD points at the new copy. It returns
// the superseded flash address for unpinning.
func (c *Cache) MarkFlushed(idx, addr uint64) (prevAddr uint64, hadPrev bool) {
	tp := c.pages[idx]
	if tp == nil {
		panic(fmt.Sprintf("mapcache: MarkFlushed of non-resident page %d", idx))
	}
	prev, had := c.gtd[idx]
	c.gtd[idx] = GTDEnt{Idx: idx, Addr: addr, Live: tp.live}
	tp.dirty = false
	return prev.Addr, had
}

// Relocate updates the GTD after the cleaner copied translation page idx
// from old to dst (the page content is unchanged).
func (c *Cache) Relocate(idx, old, dst uint64) bool {
	ent, ok := c.gtd[idx]
	if !ok || ent.Addr != old {
		return false
	}
	ent.Addr = dst
	c.gtd[idx] = ent
	return true
}

// DropResident evicts a clean (or just-flushed) page from RAM; its flash
// copy, if any, stays reachable through the GTD.
func (c *Cache) DropResident(idx uint64) {
	tp := c.pages[idx]
	if tp == nil {
		return
	}
	if tp.dirty && tp.live > 0 {
		panic(fmt.Sprintf("mapcache: evicting dirty page %d without flush", idx))
	}
	c.evict(tp)
}

// DropPage removes an emptied page everywhere (RAM and GTD), returning
// its flash address for unpinning.
func (c *Cache) DropPage(idx uint64) (prevAddr uint64, hadPrev bool) {
	if tp := c.pages[idx]; tp != nil {
		if tp.live != 0 {
			panic(fmt.Sprintf("mapcache: DropPage of page %d with %d live slots", idx, tp.live))
		}
		c.evict(tp)
	}
	ent, had := c.gtd[idx]
	delete(c.gtd, idx)
	return ent.Addr, had
}

// evict takes a resident page out of RAM and the CLOCK ring and keeps its
// slot array for reuse.
func (c *Cache) evict(tp *tpage) {
	last := len(c.ring) - 1
	c.ring[tp.ringIdx] = c.ring[last]
	c.ring[tp.ringIdx].ringIdx = tp.ringIdx
	c.ring = c.ring[:last]
	if c.hand > last {
		c.hand = 0
	}
	delete(c.pages, tp.idx)
	c.recycle(tp)
}

// DirtyPages returns the resident dirty page indices, ascending (the
// checkpoint's flush-all order).
func (c *Cache) DirtyPages() []uint64 {
	var out []uint64
	for idx, tp := range c.pages {
		if tp.dirty {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GTDEntries returns the directory sorted by page index (the checkpoint's
// serialization order).
func (c *Cache) GTDEntries() []GTDEnt {
	out := make([]GTDEnt, 0, len(c.gtd))
	for _, ent := range c.gtd {
		out = append(out, ent)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	return out
}

// LoadGTD primes the directory from a checkpoint (recovery). No pages
// become resident; they fault in on first touch.
func (c *Cache) LoadGTD(ents []GTDEnt) {
	for _, ent := range ents {
		c.gtd[ent.Idx] = ent
		c.size += ent.Live
	}
}

// LoadEntries builds resident (dirty, never-flushed) pages from sorted
// map entries — full-scan recovery's bottom-up rebuild.
func (c *Cache) LoadEntries(entries []ftlmap.Entry) {
	for _, e := range entries {
		tp := c.mutable(e.Key >> c.shift)
		s := e.Key & c.mask
		if tp.slots[s] == Unmapped {
			tp.live++
			c.size++
		}
		tp.slots[s] = slot(e.Val)
		tp.dirty = true
	}
}

// ---- forward-map operations (the ftlmap.Tree-compatible surface) ----

// Lookup returns the mapping for lba.
func (c *Cache) Lookup(lba uint64) (uint64, bool) {
	tp := c.pages[lba>>c.shift]
	if tp == nil {
		if _, onFlash := c.gtd[lba>>c.shift]; !onFlash {
			return 0, false
		}
		tp = c.peek(lba >> c.shift)
	}
	v := tp.slots[lba&c.mask]
	if v == Unmapped {
		return 0, false
	}
	return uint64(v), true
}

// LookupRange fills vals/found for the len(vals) consecutive LBAs from
// lo, returning the number found (the tree's batched-read contract).
func (c *Cache) LookupRange(lo uint64, vals []uint64, found []bool) int {
	if len(vals) != len(found) {
		panic("mapcache: LookupRange vals/found length mismatch")
	}
	hits := 0
	n := uint64(len(vals))
	for off := uint64(0); off < n; {
		idx := (lo + off) >> c.shift
		end := (idx+1)<<c.shift - lo // offset of the next page boundary
		if end > n {
			end = n
		}
		tp := c.pages[idx]
		if tp == nil {
			if _, onFlash := c.gtd[idx]; onFlash {
				tp = c.peek(idx)
			}
		}
		if tp != nil {
			for ; off < end; off++ {
				if v := tp.slots[(lo+off)&c.mask]; v != Unmapped {
					vals[off] = uint64(v)
					found[off] = true
					hits++
				}
			}
		} else {
			off = end
		}
	}
	return hits
}

// Insert maps lba to val, returning any previous mapping.
func (c *Cache) Insert(lba, val uint64) (prev uint64, existed bool) {
	v := slot(val)
	tp := c.mutable(lba >> c.shift)
	s := lba & c.mask
	old := tp.slots[s]
	if old == Unmapped {
		tp.live++
		c.size++
	}
	tp.slots[s] = v
	tp.dirty = true
	if old == Unmapped {
		return 0, false
	}
	return uint64(old), true
}

// InsertRun inserts strictly-ascending entries, grouped so each touched
// translation page is resolved once (the batched data path's contract:
// one cache fill per touched page, not per sector).
func (c *Cache) InsertRun(entries []ftlmap.Entry, onPrev func(i int, prev uint64)) {
	for i := 0; i < len(entries); {
		idx := entries[i].Key >> c.shift
		tp := c.mutable(idx)
		for ; i < len(entries) && entries[i].Key>>c.shift == idx; i++ {
			v, s := slot(entries[i].Val), entries[i].Key&c.mask
			prev := tp.slots[s]
			if prev != Unmapped {
				if onPrev != nil {
					onPrev(i, uint64(prev))
				}
			} else {
				tp.live++
				c.size++
			}
			tp.slots[s] = v
		}
		tp.dirty = true
	}
}

// DeleteRange removes every mapping in [lo, hi), calling onDel in
// ascending key order, and returns the count. Only translation pages that
// exist are visited, so a trim over a huge hole costs nothing.
func (c *Cache) DeleteRange(lo, hi uint64, onDel func(key, val uint64)) int {
	if hi <= lo {
		return 0
	}
	loIdx, hiIdx := lo>>c.shift, (hi-1)>>c.shift
	var cand []uint64
	for idx := range c.pages {
		if idx >= loIdx && idx <= hiIdx {
			cand = append(cand, idx)
		}
	}
	for idx := range c.gtd {
		if idx >= loIdx && idx <= hiIdx && c.pages[idx] == nil {
			cand = append(cand, idx)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	deleted := 0
	for _, idx := range cand {
		tp := c.peek(idx)
		if tp == nil || tp.live == 0 {
			continue
		}
		slotLo, slotHi := uint64(0), c.mask
		if idx == loIdx {
			slotLo = lo & c.mask
		}
		if idx == hiIdx {
			slotHi = (hi - 1) & c.mask
		}
		touched := false
		for s := slotLo; s <= slotHi; s++ {
			if v := tp.slots[s]; v != Unmapped {
				if onDel != nil {
					onDel(idx<<c.shift|s, uint64(v))
				}
				tp.slots[s] = Unmapped
				tp.live--
				c.size--
				deleted++
				touched = true
			}
		}
		if touched {
			tp.dirty = true
		}
	}
	return deleted
}

// Len returns the number of live mappings (resident and flash-resident).
func (c *Cache) Len() int { return c.size }

// All visits every mapping in ascending key order. Non-resident pages are
// decoded transiently through the fault handler without being installed,
// so invariant walks don't disturb the cache.
func (c *Cache) All(fn func(key, val uint64) bool) {
	idxs := make([]uint64, 0, len(c.pages)+len(c.gtd))
	for idx := range c.pages {
		idxs = append(idxs, idx)
	}
	for idx := range c.gtd {
		if c.pages[idx] == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var buf []uint32 // flash-only pages decode here, one after another
	for _, idx := range idxs {
		var slots []uint32
		if tp := c.pages[idx]; tp != nil {
			slots = tp.slots
		} else {
			ent := c.gtd[idx]
			if c.fault == nil {
				panic(fmt.Sprintf("mapcache: walk of translation page %d with no fault handler", idx))
			}
			payload, err := c.fault(idx, ent.Addr)
			if err == nil {
				buf, err = c.decode(idx, payload, buf)
			}
			if err != nil {
				panic(fmt.Sprintf("mapcache: translation page %d at addr %d unreadable: %v", idx, ent.Addr, err))
			}
			slots = buf
		}
		for s, v := range slots {
			if v == Unmapped {
				continue
			}
			if !fn(idx<<c.shift|uint64(s), uint64(v)) {
				return
			}
		}
	}
}

// pageBytes is the modeled RAM cost of one resident translation page:
// the 4-byte slot array plus struct/map/ring overhead — 320 B at 512-byte
// sectors, 2 112 B at 4K, what a page of half as many 8-byte slots cost.
func (c *Cache) pageBytes() int64 { return int64(c.slotsPer)*4 + 64 }

// gtdEntBytes is the modeled RAM cost of one GTD entry.
const gtdEntBytes = 40

// MemoryBytes returns the as-if-fully-resident footprint: what the paged
// map would cost with every translation page in RAM. This is the "total"
// side of the resident-vs-total split.
func (c *Cache) MemoryBytes() int64 {
	n := len(c.pages)
	for idx := range c.gtd {
		if c.pages[idx] == nil {
			n++
		}
	}
	return int64(n)*c.pageBytes() + int64(len(c.gtd))*gtdEntBytes
}

// ResidentBytes returns the actual host RAM held: resident pages plus the
// RAM-pinned GTD.
func (c *Cache) ResidentBytes() int64 {
	return int64(len(c.pages))*c.pageBytes() + int64(len(c.gtd))*gtdEntBytes
}

// ---- Map: the FTL-facing forward map ----

// Map is the forward map both FTLs hold: the in-RAM *ftlmap.Tree or the
// paged *Cache. The log engine type-asserts *Cache where paging needs the
// cache itself (faults, write-back, the checkpoint's GTD).
type Map interface {
	Lookup(lba uint64) (uint64, bool)
	LookupRange(lo uint64, vals []uint64, found []bool) int
	Insert(lba, val uint64) (prev uint64, existed bool)
	InsertRun(entries []ftlmap.Entry, onPrev func(i int, prev uint64))
	DeleteRange(lo, hi uint64, onDel func(key, val uint64)) int
	Len() int
	All(fn func(key, val uint64) bool)
	MemoryBytes() int64
}
