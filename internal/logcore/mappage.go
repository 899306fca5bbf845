package logcore

import (
	"cmp"
	"fmt"
	"slices"

	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Flash-resident paged mapping table (DESIGN.md §13). The device's forward
// map is cut into translation pages (mapcache) of 4-byte page addresses —
// 64 LBAs per page at 512-byte sectors, 512 at 4K; this file is the log-side
// glue: charged foreground faults through the batched read path, CLOCK
// eviction with dirty write-back through the log head, and the pin
// bookkeeping that protects on-flash translation pages from the cleaner
// (they are valid in no bitmap, exactly like checkpoint chunks).

// newActiveMap builds the device's forward map per the configured
// layout: the in-RAM tree, or the paged translation-page cache bounded to
// MapCachePages resident pages.
func (l *Log) newActiveMap() mapcache.Map {
	if l.cfg.MapCachePages == 0 {
		return ftlmap.New()
	}
	return mapcache.NewCache(mapcache.SlotsFor(l.cfg.Nand.SectorSize), l.cfg.MapCachePages, l.newMapFault())
}

// RecoverMap builds the device's forward map from recovery output: the
// translations found (a full scan's winners or a full-map checkpoint's list,
// in any order) plus, in paged mode, an optional GTD from a paged
// checkpoint. GTD pages stay on flash and fault in lazily; entries become
// resident dirty pages (the cache may start over-limit — the first
// foreground op shrinks it).
func (l *Log) RecoverMap(entries []ftlmap.Entry, gtd []mapcache.GTDEnt) mapcache.Map {
	// Keys are unique, so any correct sort yields the same order;
	// slices.SortFunc does it without sort.Slice's reflection-based swapper.
	slices.SortFunc(entries, func(a, b ftlmap.Entry) int { return cmp.Compare(a.Key, b.Key) })
	if l.cfg.MapCachePages == 0 {
		l.ActiveMap = ftlmap.BulkLoad(entries)
		return l.ActiveMap
	}
	l.ActiveMap = l.newActiveMap()
	c := l.ActiveMap.(*mapcache.Cache)
	if len(gtd) > 0 {
		c.LoadGTD(gtd)
		for _, ent := range gtd {
			l.pinMapPage(nand.PageAddr(ent.Addr), ent.Idx)
		}
	}
	c.LoadEntries(entries)
	return l.ActiveMap
}

// newMapFault serves host-side translation-page faults (invariant walks,
// background decodes): an untimed payload read straight off the device.
// Foreground faults never come here — they go through mapEnsure's charged
// batch read before the map operation runs.
func (l *Log) newMapFault() mapcache.FaultFunc {
	return func(_, addr uint64) ([]byte, error) {
		return l.Dev.PageData(nand.PageAddr(addr))
	}
}

// mapEnsure makes the translation pages covering [lba, lba+n) resident in
// m before a foreground operation, charging the fault reads to the
// operation's timeline, then evicts back down to the residency limit.
// Tree-mode maps pass through untouched.
func (l *Log) mapEnsure(now sim.Time, m mapcache.Map, lba uint64, n int) (sim.Time, error) {
	c, ok := m.(*mapcache.Cache)
	if !ok {
		return now, nil
	}
	l.ws.mapMiss = c.TouchRange(lba, n, l.ws.mapMiss[:0])
	now, err := l.mapFill(now, c, l.ws.mapMiss)
	if err != nil {
		return now, err
	}
	return l.mapShrink(now, c, c.PageOf(lba), c.PageOf(lba+uint64(n)-1))
}

// mapEnsureRange is mapEnsure for sparse spans (trims): only translation
// pages that exist are faulted, so a discard over a huge hole costs
// O(existing pages), not O(range).
func (l *Log) mapEnsureRange(now sim.Time, m mapcache.Map, lo, hi uint64) (sim.Time, error) {
	c, ok := m.(*mapcache.Cache)
	if !ok {
		return now, nil
	}
	loIdx, hiIdx := c.PageOf(lo), c.PageOf(hi-1)
	l.ws.mapMiss = c.MissingInRange(loIdx, hiIdx, l.ws.mapMiss[:0])
	now, err := l.mapFill(now, c, l.ws.mapMiss)
	if err != nil {
		return now, err
	}
	return l.mapShrink(now, c, loIdx, hiIdx)
}

// mapFill faults the missed translation pages with one charged batch read
// and installs them (the cache decodes each into the slot array of a page
// it evicted earlier).
func (l *Log) mapFill(now sim.Time, c *mapcache.Cache, miss []uint64) (sim.Time, error) {
	if len(miss) == 0 {
		return now, nil
	}
	addrs := l.ws.mapAddrs[:0]
	for _, idx := range miss {
		a, ok := c.AddrOf(idx)
		if !ok {
			panic(fmt.Sprintf("logcore: missed translation page %d has no flash address", idx))
		}
		addrs = append(addrs, nand.PageAddr(a))
	}
	l.ws.mapAddrs = addrs
	datas, _, k, done, err := l.DevReadPages(now, addrs)
	for i := 0; i < k; i++ {
		if derr := c.Absorb(miss[i], datas[i]); derr != nil {
			return done, fmt.Errorf("logcore: translation page %d at %d: %w", miss[i], addrs[i], derr)
		}
	}
	if err != nil {
		return done, fmt.Errorf("logcore: faulting translation page %d: %w", miss[k], err)
	}
	return done, nil
}

// mapShrink evicts resident translation pages until the cache is back
// under its limit, skipping the pages the in-flight operation needs
// ([keepLo, keepHi]) and — while the device is frozen — dirty pages, since
// a freeze forbids programs. Eviction follows the CLOCK hand: emptied
// pages are dropped everywhere (their flash copy is unpinned and becomes
// garbage), dirty ones are flushed through the log head first. A failed
// flush stops shrinking (soft over-limit; the next operation retries).
func (l *Log) mapShrink(now sim.Time, c *mapcache.Cache, keepLo, keepHi uint64) (sim.Time, error) {
	for c.Resident() > c.Limit() {
		idx, ok := c.ClockVictim(func(idx uint64) bool {
			if idx >= keepLo && idx <= keepHi {
				return true
			}
			if l.frozen {
				if dirty, _, _ := c.PageState(idx); dirty {
					return true
				}
			}
			return false
		})
		if !ok {
			return now, nil
		}
		dirty, live, _ := c.PageState(idx)
		if live == 0 {
			if prev, had := c.DropPage(idx); had {
				l.unpinMapPage(nand.PageAddr(prev))
			}
			continue
		}
		if dirty {
			var err error
			now, err = l.flushMapPage(now, c, idx)
			if err != nil {
				return now, nil
			}
		}
		c.DropResident(idx)
		c.NoteEviction()
	}
	return now, nil
}

// flushMapPage writes one dirty translation page through the log head:
// an ordinary log append under a TypeMapPage header (LBA = page index,
// epoch 0 — translation pages are valid in no epoch; the pin in
// MapPins is their only cleaning protection).
func (l *Log) flushMapPage(now sim.Time, c *mapcache.Cache, idx uint64) (sim.Time, error) {
	addrs, _, at, done, err := l.AppendRun(now, l.cfg.DataReserve(), 1, func(int) (header.Header, []byte) {
		// The device copies the payload on program, so the buffer is the
		// log's to reuse for the next flush.
		if len(l.ws.mapPage) != l.cfg.Nand.SectorSize {
			l.ws.mapPage = make([]byte, l.cfg.Nand.SectorSize)
		}
		mapcache.EncodePage(l.ws.mapPage, idx, c.Slots(idx))
		return header.Header{Type: header.TypeMapPage, LBA: idx}, l.ws.mapPage
	})
	switch {
	case len(addrs) == 0:
		return at, fmt.Errorf("logcore: allocating translation page: %w", err)
	case err != nil:
		return at, fmt.Errorf("logcore: writing translation page %d: %w", idx, err)
	}
	if prev, had := c.MarkFlushed(idx, uint64(addrs[0])); had {
		l.unpinMapPage(nand.PageAddr(prev))
	}
	l.pinMapPage(addrs[0], idx)
	c.NoteFlushed(1)
	return done, nil
}

// flushAllMapPages writes back every dirty translation page (checkpoint
// prologue: the GTD a checkpoint serializes must reference current
// copies). It loops to convergence because a forced clean inside a flush
// can re-point mappings on already-flushed pages (gcFixup inserts through
// the live map, re-dirtying them).
func (l *Log) flushAllMapPages(now sim.Time, c *mapcache.Cache) (sim.Time, error) {
	for {
		dirty := c.DirtyPages()
		if len(dirty) == 0 {
			return now, nil
		}
		for _, idx := range dirty {
			var err error
			now, err = l.flushMapPage(now, c, idx)
			if err != nil {
				return now, err
			}
		}
	}
}

// moveMapPin re-points a translation page's pin and GTD entry after the
// cleaner copied it from old to dst.
func (l *Log) moveMapPin(old, dst nand.PageAddr) {
	idx, ok := l.MapPins[old]
	if !ok {
		return
	}
	l.unpinMapPage(old)
	l.pinMapPage(dst, idx)
	if c, ok := l.ActiveMap.(*mapcache.Cache); ok {
		c.Relocate(idx, uint64(old), uint64(dst))
	}
}

// pinMapPage and unpinMapPage are the only writers of MapPins: each keeps
// the victim heap's per-segment pinned count in step with the set.
func (l *Log) pinMapPage(a nand.PageAddr, idx uint64) {
	if _, ok := l.MapPins[a]; !ok {
		l.addPinned(a, 1)
	}
	l.MapPins[a] = idx
}

func (l *Log) unpinMapPage(a nand.PageAddr) {
	if _, ok := l.MapPins[a]; ok {
		delete(l.MapPins, a)
		l.addPinned(a, -1)
	}
}
