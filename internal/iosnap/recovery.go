package iosnap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Crash recovery (paper §5.5) replays the log's notes and data pages in
// sequence order, doing what the live system did when it wrote each one
// (replay). Both recovery paths run that one replay:
//
//   - The full scan reads every live segment's headers and replays them onto
//     an empty device: epoch 1 active, the epoch counter at 1, no snapshot.
//   - With a committed checkpoint on the device (checkpoint.go) recovery is
//     tail-bounded instead: the active map, the snapshot tree, and every
//     epoch's validity delta are bulk-loaded from the checkpoint's one
//     chunk stream, and only headers written after the cut-off — in
//     segments the checkpoint's table proves changed — are scanned and
//     replayed on top. Anything that cannot be proven intact (a torn or
//     incomplete generation, a reclaimed chunk, a cleaner that moved
//     pre-cut-off blocks, a tail event the loaded image cannot express)
//     falls back to the full scan; the log itself remains the source of
//     truth.
//
// Either path ends with a history reap (reap.go): the full scan has rebuilt
// every epoch ever created. A record the live system could not have written
// is refused: the full scan fails, the tail path falls back.
//
// Only the active tree's forward map is built (the paper's explicit design
// choice); snapshots must be re-activated to be read. Writable views that
// were live at crash time are not reconstructed: their never-snapshotted
// epochs die and the cleaner reclaims their blocks.

// rec is one scanned header the replay applies, and the page it was read
// from.
type rec struct {
	header.Header
	addr nand.PageAddr
}

// Recover reconstructs an ioSnap FTL from an existing device, tail-bounded
// when the device anchor names a trustworthy checkpoint.
func Recover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverIoSnap(cfg, dev, sched, now, false)
}

// RecoverFullScan reconstructs an ioSnap FTL by the full header scan,
// ignoring the checkpoint anchor. It is the reference path: tests and
// benchmarks compare its result against tail-bounded recovery.
func RecoverFullScan(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverIoSnap(cfg, dev, sched, now, true)
}

func recoverIoSnap(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time, forceFull bool) (*FTL, sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return nil, now, err
	}
	if dev.Config() != cfg.Nand {
		return nil, now, fmt.Errorf("iosnap: device geometry differs from config")
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

// collect adds one scanned header to the records recovery replays: notes and
// data pages. Checkpoint chunks and translation pages carry coordinates, not
// epochs, and are consumed through the anchor and the GTD, never replayed.
func collect(recs []rec, addr nand.PageAddr, h header.Header) []rec {
	switch h.Type {
	case header.TypeData, header.TypeSnapCreate, header.TypeSnapDelete, header.TypeSnapActivate, header.TypeSnapDeactivate:
		recs = append(recs, rec{Header: h, addr: addr})
	}
	return recs
}

// fullScanRecover is the historical path: scan every live segment's
// headers and replay them onto an empty device. Checkpoint chunks are
// deliberately ignored: the full scan is the reference reconstruction and
// trusts only the raw log.
func fullScanRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	f := newShell(cfg, dev, sched)
	var (
		recs []rec
		data int
		scan = f.NewScan(0)
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
			recs = collect(recs, addr, h)
			if h.Type == header.TypeData {
				data++
			}
			return true
		})
		if err != nil {
			return nil, now, err
		}
	}

	// The log replays into a plain tree; its entries then bulk-load the
	// device's forward map, in whichever layout it is configured.
	tree := ftlmap.New()
	f.epochCounter = 1
	if err := f.vstore.CreateEpoch(1, bitmap.NoParent); err != nil {
		return nil, now, err
	}
	f.active = &view{fmap: tree, epoch: 1, writable: true}
	f.views = []*view{f.active}
	if err := f.replay(recs); err != nil {
		return nil, now, err
	}
	entries := make([]ftlmap.Entry, 0, tree.Len())
	tree.All(func(lba, addr uint64) bool {
		entries = append(entries, ftlmap.Entry{Key: lba, Val: addr})
		return true
	})
	f.active.fmap = f.RecoverMap(entries, nil)
	f, now, err := f.finishRecovery(now, scan, data)
	if err != nil {
		return nil, now, err
	}
	// The full scan rebuilds without the checkpoint and pins nothing, so a
	// stale anchor must not survive into the next reopen: its chunks are
	// garbage now and the cleaner may reclaim them at any time. A mount that
	// failed leaves it for the next one.
	dev.SetAnchor(nil)
	return f, now, nil
}

// tryTailRecover attempts checkpoint-based recovery via the device anchor.
// It mutates only the candidate FTL, never the device, so a failure at any
// point simply discards the partial state and reports ok=false.
func tryTailRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, bool) {
	anchor := dev.Anchor()
	f := newShell(cfg, dev, sched)

	// ---- Read the anchor's chunks. ----
	// They must make one complete stream that decodes against the anchor's
	// generation, whose ID is the cut-off; anything less means a torn, mixed
	// or partially-reclaimed checkpoint.
	chunks, now, ok := f.ReadAnchorChunks(now)
	if !ok {
		return nil, now, false
	}
	secs, ok := logcore.AssembleStream(anchor.ID, chunks)
	if !ok {
		return nil, now, false
	}
	cutoff := anchor.ID
	mapEntries, gtdEnts, gtdSlots, err := decodeCkptMap(secs)
	if err != nil {
		return nil, now, false
	}
	if gtdEnts != nil && !f.GTDUsable(gtdSlots) {
		return nil, now, false
	}
	treeState, err := decodeCkptTree(secs)
	if err != nil {
		return nil, now, false
	}
	epochs, err := decodeCkptValid(secs, f.vstore.BitsPerPage())
	if err != nil {
		return nil, now, false
	}
	recorded, ok := logcore.CheckSegTable(dev, treeState.table)
	if !ok {
		return nil, now, false
	}

	// ---- Bulk-load the checkpoint image. ----
	// Epoch records are ascending and an epoch's parent is always numerically
	// smaller, so one pass creates the whole inheritance graph; tombstones
	// apply after every creation so parents stay addressable.
	for _, er := range epochs {
		if err := f.vstore.CreateEpoch(er.epoch, er.parent); err != nil {
			return nil, now, false
		}
		for _, pg := range er.pages {
			if err := f.vstore.ImportPage(er.epoch, pg.PageIdx, pg.Words); err != nil {
				return nil, now, false
			}
		}
	}
	for _, er := range epochs {
		if er.deleted {
			if err := f.vstore.DeleteEpoch(er.epoch); err != nil {
				return nil, now, false
			}
		}
	}
	for _, a := range treeState.aliases {
		if err := f.vstore.ImportAlias(a.Epoch, a.Heir); err != nil {
			return nil, now, false
		}
	}
	f.epochCounter = treeState.counter
	// Snapshot records are sorted by ID and a parent's ID is always smaller
	// than its children's, so one pass relinks the tree.
	for _, sr := range treeState.snaps {
		var parent *Snapshot
		if sr.parentID != 0 {
			p, ok := f.tree.Lookup(sr.parentID)
			if !ok {
				return nil, now, false
			}
			parent = p
		}
		f.tree.add(&Snapshot{ID: sr.id, Epoch: sr.epoch, Parent: parent, Deleted: sr.deleted, noteAddr: sr.noteAddr})
	}
	// Reaped snapshots left no record: their IDs stay spent.
	f.tree.nextID = max(f.tree.nextID, treeState.nextID)
	// Geometry for every recorded segment; scanned tail records layer on
	// top below.
	var (
		recs []rec
		scan = f.NewScan(cutoff)
	)
	for _, r := range treeState.table {
		scan.Trust(r)
	}

	// ---- Tail scan: only segments the table proves changed. ----
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		if dev.SegmentHealth(seg) == nand.Retired {
			continue
		}
		segRec, isRecorded := recorded[seg]
		if isRecorded && dev.NextFreeInSegment(seg) == segRec.Prog {
			continue // unchanged since serialization: the table speaks for it
		}
		if !isRecorded && dev.ProgrammedInSegment(seg) == 0 {
			continue // still free
		}
		// Pages below segRec.Prog (0 for an unrecorded segment) are
		// checkpoint-covered state.
		done, ok, _ := f.ScanSegment(now, seg, segRec.Prog, scan, func(addr nand.PageAddr, h header.Header) bool {
			if h.Seq <= cutoff {
				// A parseable pre-cut-off header in the post-checkpoint
				// region is a cleaner copy of checkpointed state (copied
				// after serialization, crash before the victim's erase).
				// Replaying it would double-apply history the checkpoint
				// already contains — and the full scan resolves such
				// duplicates differently — so the generation is stale.
				return false
			}
			recs = collect(recs, addr, h)
			return true
		})
		if !ok {
			return nil, now, false
		}
		now = done
	}

	// ---- Replay the tail on top of the loaded image. ----
	active := treeState.active
	if _, frozen := f.tree.ByEpoch(active); frozen || !f.vstore.Exists(active) || f.vstore.Deleted(active) {
		return nil, now, false
	}
	f.active = &view{fmap: f.RecoverMap(mapEntries, gtdEnts), epoch: active, writable: true, parent: f.nearestSnapshotAncestor(active)}
	f.views = []*view{f.active}
	if f.replay(recs) != nil {
		return nil, now, false
	}

	// The anchor's chunks are live recovery state until superseded.
	f.AdoptAnchor(anchor.ID, anchor.Addrs)

	out, done, err := f.finishRecovery(now, scan, len(mapEntries)+len(gtdEnts)+len(recs))
	if err != nil {
		return nil, done, false
	}
	out.stats.RecoveryTailBounded = true
	return out, done, true
}

// finishRecovery reaps the history the replay rebuilt, rebuilds the log
// geometry shared by both recovery paths (the engine's pools and head;
// accounting entries start stale — their caches were never built — and the
// first selection decision rebuilds them against the recovered epochs) and
// charges the modeled reconstruction CPU for the processed records.
func (f *FTL) finishRecovery(now sim.Time, scan *logcore.Scan, records int) (*FTL, sim.Time, error) {
	f.reap()
	f.vstore.ResetCoWCounter()
	if err := f.RebuildGeometry(scan); err != nil {
		return nil, now, err
	}
	now = now.Add(sim.Duration(records) * reconstructCPUPerEntry)
	f.MaybeClean(now)
	return f, now, nil
}

// errNotLive refuses a record the live system could not have written.
var errNotLive = errors.New("not a record the live system writes")

// replay applies recs onto f in sequence order, each as the live system
// applied it when it wrote the record:
//
//   - a note's page is valid in the epoch active when it was written
//     (writeNote);
//   - a create forks the epoch it freezes, and the active view moves to the
//     new epoch if it froze the active one; a delete deletes the snapshot's
//     epoch; an activate creates the view's epoch and a deactivate deletes
//     it (View.Deactivate);
//   - a data page written into the active epoch goes through the active map.
//     One written into another live epoch — a writable view's, whose map
//     recovery does not keep — waits: if a later create freezes that epoch,
//     its writes are applied then, in order, onto a map rebuilt from the
//     epoch's validity bits (viewMap). Writes into a frozen, deleted or
//     unknown epoch are dropped.
//
// Records sharing a seq are cleaner duplicates (copy-forwarded, crash before
// the source's erase): only the one at the higher address is kept, whatever
// the kinds. At the end every live epoch neither active nor frozen into a
// snapshot — a writable view's — dies.
//
// The live system forks a new epoch only from an older one it holds, gives
// each epoch one parent, hands out ascending snapshot IDs, freezes an epoch
// once, deactivates only a view's own epoch and writes only the device's
// LBAs; a record that does otherwise is refused with an error.
func (f *FTL) replay(recs []rec) error {
	slices.SortFunc(recs, func(a, b rec) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.addr, b.addr))
	})
	// Epochs up to the counter the replay starts from were all allocated
	// before it, the reaped ones included: a checkpoint serializes between
	// operations, never between an activation's allocation of the counter
	// and its note, so no later activation names an epoch at or below it.
	floor := f.epochCounter
	pending := make(map[bitmap.Epoch][]rec)
	for i, r := range recs {
		if i+1 < len(recs) && recs[i+1].Seq == r.Seq {
			continue
		}
		if err := f.apply(r, floor, pending); err != nil {
			return fmt.Errorf("iosnap: %v at page %d (LBA or snapshot %d, epoch %d): %w", r.Type, r.addr, r.LBA, r.Epoch, err)
		}
	}
	for _, e := range slices.Clone(f.vstore.LiveEpochs()) {
		if _, frozen := f.tree.ByEpoch(e); !frozen && e != f.active.epoch {
			if err := f.vstore.DeleteEpoch(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply replays one record (see replay); pending holds the writes waiting
// for their epoch to freeze.
func (f *FTL) apply(r rec, floor bitmap.Epoch, pending map[bitmap.Epoch][]rec) error {
	e := bitmap.Epoch(r.Epoch)
	_, frozen := f.tree.ByEpoch(e)
	live := f.vstore.Exists(e) && !f.vstore.Deleted(e)
	if r.Type != header.TypeData {
		f.vstore.Set(f.active.epoch, int64(r.addr))
	}
	switch r.Type {
	case header.TypeData:
		switch {
		case r.LBA >= uint64(f.cfg.UserSectors):
			return errNotLive
		case e == f.active.epoch:
			f.replayWrite(f.active.fmap, r)
		case live && !frozen:
			pending[e] = append(pending[e], r)
		}
	case header.TypeSnapCreate:
		newEpoch := f.epochCounter + 1
		if frozen || !live || e >= newEpoch || SnapshotID(r.LBA) < f.tree.nextID {
			return errNotLive
		}
		if w := pending[e]; len(w) > 0 {
			m := f.viewMap(e)
			for _, d := range w {
				f.replayWrite(m, d)
			}
		}
		if err := f.vstore.CreateEpoch(newEpoch, e); err != nil {
			return err
		}
		f.epochCounter = newEpoch
		snap := &Snapshot{ID: SnapshotID(r.LBA), Epoch: e, Parent: f.nearestSnapshotAncestor(e), noteAddr: r.addr}
		f.tree.add(snap)
		if e == f.active.epoch {
			f.active.epoch, f.active.parent = newEpoch, snap
		}
	case header.TypeSnapDelete:
		if s, ok := f.tree.Lookup(SnapshotID(r.LBA)); ok {
			s.Deleted = true
			return f.vstore.DeleteEpoch(s.Epoch)
		}
	case header.TypeSnapActivate:
		if f.vstore.Exists(e) || e <= floor {
			return errNotLive
		}
		f.epochCounter = max(f.epochCounter, e)
		if s, ok := f.tree.Lookup(SnapshotID(r.LBA)); ok {
			if s.Epoch >= e {
				return errNotLive
			}
			return f.vstore.CreateEpoch(e, s.Epoch)
		}
	case header.TypeSnapDeactivate:
		if frozen || e == f.active.epoch || !f.vstore.Exists(e) {
			return errNotLive
		}
		return f.vstore.DeleteEpoch(e)
	}
	return nil
}

// replayWrite applies data page r to the map m of r's epoch and to the
// epoch's validity, as the live write path did.
func (f *FTL) replayWrite(m mapcache.Map, r rec) {
	e := bitmap.Epoch(r.Epoch)
	if prev, existed := m.Insert(r.LBA, uint64(r.addr)); existed {
		f.vstore.Clear(e, int64(prev))
	}
	f.vstore.Set(e, int64(r.addr))
}

// viewMap rebuilds the forward map of epoch e from its validity bits and
// its data pages' headers, one pass over the device's pages.
func (f *FTL) viewMap(e bitmap.Epoch) *ftlmap.Tree {
	m := ftlmap.New()
	for p := int64(0); p < f.cfg.Nand.TotalPages(); p++ {
		if !f.vstore.Test(e, p) {
			continue
		}
		if oob, err := f.Dev.PageOOB(nand.PageAddr(p)); err == nil {
			if h, err := header.Unmarshal(oob); err == nil && h.Type == header.TypeData {
				m.Insert(h.LBA, uint64(p))
			}
		}
	}
	return m
}

// nearestSnapshotAncestor walks the epoch inheritance upward from e's parent
// and returns the first epoch frozen into a snapshot.
func (f *FTL) nearestSnapshotAncestor(e bitmap.Epoch) *Snapshot {
	for p, ok := f.vstore.Parent(e); ok; p, ok = f.vstore.Parent(p) {
		if s, isSnap := f.tree.ByEpoch(p); isSnap {
			return s
		}
	}
	return nil
}
