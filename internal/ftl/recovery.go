package ftl

import (
	"fmt"
	"sort"

	"iosnap/internal/ckpt"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Crash recovery. The shell — anchor chunks, stream assembly, the OOB scan
// loop, pool and head reconstruction — is the log engine's
// (logcore/recovery.go); here is what the vanilla FTL makes of the records:
// last write wins per LBA, and the validity bitmap is whatever the recovered
// map points at.

// scanEntry is one data translation found during the log scan.
type scanEntry struct {
	lba  uint64
	addr nand.PageAddr
	seq  uint64
}

// Recover reconstructs an FTL from an existing device. If the device
// anchor names a complete, still-trustworthy checkpoint, recovery is
// tail-bounded: the forward map is bulk-loaded from the checkpoint and
// only segments written since (per the checkpoint's segment table) have
// their headers scanned. Anything wrong with the checkpoint — torn,
// incomplete, or invalidated by cleaning since it was written — falls
// back to the full header scan of every segment, the paper's bottom-up
// reconstruction (§5.5.1).
func Recover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverFTL(cfg, dev, sched, now, false)
}

// RecoverFullScan reconstructs an FTL by the full header scan, ignoring
// the checkpoint anchor. It is the reference path: tests and benchmarks
// compare its result against tail-bounded recovery.
func RecoverFullScan(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverFTL(cfg, dev, sched, now, true)
}

func recoverFTL(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time, forceFull bool) (*FTL, sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return nil, now, err
	}
	if dev.Config() != cfg.Nand {
		return nil, now, fmt.Errorf("ftl: device geometry differs from config")
	}
	if sched == nil {
		sched = sim.NewScheduler()
	}
	tailAttempted := !forceFull && dev.Anchor() != nil && cfg.Nand.StoreData
	if tailAttempted {
		f, t, ok := tryTailRecover(cfg, dev, sched, now)
		if ok {
			return f, t, nil
		}
		now = t // virtual time spent probing the checkpoint is real
	}
	f, now, err := fullScanRecover(cfg, dev, sched, now)
	if err != nil {
		return nil, now, err
	}
	if tailAttempted {
		f.stats.RecoveryFallbacks++
	}
	return f, now, nil
}

// fullScanRecover is the historical path: scan every live segment's
// headers, prefer the newest complete checkpoint found on the log, and
// replay translations on top.
func fullScanRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	f := newShell(cfg, dev, sched)
	var (
		entries []scanEntry
		chunks  []logcore.AnchorChunk
		scan    = f.NewScan(0)
	)
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		if dev.SegmentHealth(seg) == nand.Retired {
			// A retired segment was fully rescued before retirement; any
			// headers it still holds are stale copies that must not win
			// last-write-wins replay over the rescued ones.
			continue
		}
		var err error
		now, _, err = f.ScanSegment(now, seg, 0, scan, func(addr nand.PageAddr, h header.Header) bool {
			switch h.Type {
			case header.TypeData:
				entries = append(entries, scanEntry{lba: h.LBA, addr: addr, seq: h.Seq})
			case header.TypeCheckpoint:
				chunks = append(chunks, logcore.AnchorChunk{Addr: addr, Idx: h.LBA, Total: h.Epoch, Type: h.Type})
			}
			return true
		})
		if err != nil {
			return nil, now, err
		}
	}

	// Prefer the newest complete checkpoint, then replay any data written
	// after it (the device may have been reopened and written post-close).
	loaded, ckptSeq, now, err := f.loadCheckpoint(now, chunks)
	if err != nil {
		return nil, now, err
	}
	if loaded {
		f.applyNewer(entries, ckptSeq)
	} else {
		// No usable checkpoint on the log: whatever the anchor pointed at
		// is gone or untrustworthy, so drop it, and bulk-load the map from
		// the scan's winners bottom-up.
		dev.SetAnchor(nil)
		img := &ckptImage{}
		for lba, e := range winners(entries, 0) {
			img.entries = append(img.entries, ftlmap.Entry{Key: lba, Val: uint64(e.addr)})
		}
		f.loadMap(now, img) // no GTD: nothing to read, nothing to fail
	}
	return f.finishRecovery(now, scan)
}

// tryTailRecover attempts checkpoint-based recovery via the device anchor.
// It mutates only the candidate FTL, never the device, so a failure at any
// point simply discards the partial state and reports ok=false.
func tryTailRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, bool) {
	anchor := dev.Anchor()
	f := newShell(cfg, dev, sched)

	chunks, now, ok := f.ReadAnchorChunks(now)
	if !ok {
		return nil, now, false
	}
	for _, c := range chunks {
		if c.Type != header.TypeCheckpoint {
			return nil, now, false
		}
	}
	ckptSeq, secs, ok := logcore.AssembleStream(anchor.ID, chunks)
	if !ok {
		return nil, now, false
	}
	img, err := decodeCheckpointSections(secs)
	if err != nil || (img.gtd != nil && !f.GTDUsable(img.gtdSlots)) {
		// A GTD checkpoint under a tree-mode config (or a foreign page
		// geometry) cannot be consumed lazily; the full scan rebuilds the
		// map from data headers instead.
		return nil, now, false
	}
	recorded, ok := logcore.CheckSegTable(dev, img.table)
	if !ok {
		return nil, now, false
	}

	// Scan only segments that changed since the checkpoint; trust the
	// table for the rest.
	var entries []scanEntry
	scan := f.NewScan(ckptSeq)
	for _, rec := range img.table {
		scan.Trust(rec)
	}
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		if dev.SegmentHealth(seg) == nand.Retired {
			continue
		}
		rec, isRecorded := recorded[seg]
		if isRecorded && dev.NextFreeInSegment(seg) == rec.Prog {
			continue // unchanged since serialization: the table speaks for it
		}
		if !isRecorded && dev.ProgrammedInSegment(seg) == 0 {
			continue // still free
		}
		var err error
		now, _, err = f.ScanSegment(now, seg, 0, scan, func(addr nand.PageAddr, h header.Header) bool {
			if h.Type == header.TypeData {
				entries = append(entries, scanEntry{lba: h.LBA, addr: addr, seq: h.Seq})
			}
			return true
		})
		if err != nil {
			return nil, now, false
		}
	}

	if now, err = f.loadMap(now, img); err != nil {
		return nil, now, false
	}
	f.applyNewer(entries, ckptSeq)
	// The anchor's chunks are live recovery state until superseded.
	f.AdoptAnchor(anchor.ID, anchor.Addrs)

	f, now, err = f.finishRecovery(now, scan)
	if err != nil {
		return nil, now, false
	}
	f.stats.RecoveryTailBounded = true
	return f, now, true
}

// finishRecovery rebuilds the log geometry from what either path scanned
// and re-arms the cleaner.
func (f *FTL) finishRecovery(now sim.Time, scan *logcore.Scan) (*FTL, sim.Time, error) {
	if err := f.RebuildGeometry(scan); err != nil {
		return nil, now, err
	}
	f.maybeScheduleGC(now)
	return f, now, nil
}

// loadMap installs a checkpoint's map and marks what it maps valid. The bitmap is derived from the forward map — unlike iosnap,
// whose checkpoints carry an explicit validity stream — so for a
// bounded-paged checkpoint recovery must read every GTD-referenced
// translation page (a charged batch read) and mark each mapping it holds.
// The pages are decoded and discarded, not made resident: the cache stays
// empty and bounded, and the pages stay on flash, pinned by RecoverMap.
func (f *FTL) loadMap(now sim.Time, img *ckptImage) (sim.Time, error) {
	f.RecoverMap(img.entries, img.gtd)
	for _, e := range img.entries {
		f.markValid(int64(e.Val))
	}
	if len(img.gtd) == 0 {
		return now, nil
	}
	addrs := make([]nand.PageAddr, len(img.gtd))
	for i, ent := range img.gtd {
		addrs[i] = nand.PageAddr(ent.Addr)
	}
	datas, _, k, done, err := f.DevReadPages(now, addrs)
	if err != nil {
		return done, fmt.Errorf("ftl: reading GTD translation page %d: %w", img.gtd[k].Idx, err)
	}
	for i, ent := range img.gtd {
		gotIdx, slots, derr := mapcache.DecodePage(datas[i], nil)
		if derr != nil {
			return done, fmt.Errorf("ftl: translation page %d at %d: %w", ent.Idx, addrs[i], derr)
		}
		if gotIdx != ent.Idx {
			return done, fmt.Errorf("ftl: translation page %d decoded as %d", ent.Idx, gotIdx)
		}
		for _, v := range slots {
			if v != mapcache.Unmapped {
				f.markValid(int64(v))
			}
		}
	}
	return done, nil
}

// loadCheckpoint tries to decode the newest complete checkpoint among the
// chunks the full scan found. Chunks are grouped by the generation tag each
// chunk carries — an index-set check alone would accept a
// "complete-looking" interleaving of two generations — and a group is used
// only if it assembles into one complete stream, its checksum verifies, and
// its segment table still describes the device. It returns loaded=false (and
// no error) when no group qualifies — including on devices that do not store
// payloads.
func (f *FTL) loadCheckpoint(now sim.Time, chunks []logcore.AnchorChunk) (bool, uint64, sim.Time, error) {
	if len(chunks) == 0 || !f.cfg.Nand.StoreData {
		return false, 0, now, nil
	}
	addrs := make([]nand.PageAddr, len(chunks))
	for i, c := range chunks {
		addrs[i] = c.Addr
	}
	// A vanishing chunk disqualifies only its generation.
	payloads, now, _ := f.ReadChunkPayloads(now, addrs, true)
	// Group by generation tag, one chunk per index: the cleaner may have
	// duplicated a chunk (copied forward, crash before the victim's erase).
	groups := make(map[uint64]map[uint64]logcore.AnchorChunk)
	for i, c := range chunks {
		id, ok := ckpt.ChunkID(payloads[i])
		if payloads[i] == nil || !ok {
			continue
		}
		if groups[id] == nil {
			groups[id] = make(map[uint64]logcore.AnchorChunk)
		}
		c.Payload = payloads[i]
		groups[id][c.Idx] = c
	}
	// Try generations newest-first.
	ids := make([]uint64, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	for _, id := range ids {
		group := make([]logcore.AnchorChunk, 0, len(groups[id]))
		for _, c := range groups[id] {
			group = append(group, c)
		}
		sort.Slice(group, func(i, j int) bool { return group[i].Idx < group[j].Idx })
		ckptSeq, secs, ok := logcore.AssembleStream(id, group)
		if !ok {
			continue // incomplete: some chunks were reclaimed or never written
		}
		img, err := decodeCheckpointSections(secs)
		if err != nil || (img.gtd != nil && !f.GTDUsable(img.gtdSlots)) {
			continue // undecodable, or a GTD layout this config cannot consume
		}
		if _, ok := logcore.CheckSegTable(f.Dev, img.table); !ok {
			continue // the cleaner moved pre-cut-off blocks since; stale
		}
		if now, err = f.loadMap(now, img); err != nil {
			return false, 0, now, err
		}
		// Re-pin and re-anchor the winning generation so the cleaner keeps
		// honoring it after this reopen.
		anchor := make([]nand.PageAddr, len(group))
		for i, c := range group {
			anchor[i] = c.Addr
		}
		f.AdoptAnchor(id, anchor)
		f.Dev.SetAnchor(&nand.Anchor{ID: id, Addrs: f.AnchorAddrs})
		return true, ckptSeq, now, nil
	}
	return false, 0, now, nil
}

// winners resolves the scanned translations newer than the cut-off to one
// per LBA: the last write (highest seq) wins.
func winners(entries []scanEntry, ckptSeq uint64) map[uint64]scanEntry {
	w := make(map[uint64]scanEntry, len(entries))
	for _, e := range entries {
		if cur, ok := w[e.lba]; e.seq > ckptSeq && (!ok || e.seq > cur.seq) {
			w[e.lba] = e
		}
	}
	return w
}

// applyNewer overlays post-checkpoint translations onto the loaded map.
func (f *FTL) applyNewer(entries []scanEntry, ckptSeq uint64) {
	for lba, e := range winners(entries, ckptSeq) {
		if prev, existed := f.ActiveMap.Insert(lba, uint64(e.addr)); existed {
			f.markInvalid(int64(prev))
		}
		f.markValid(int64(e.addr))
	}
}
