package iosnap

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Crash recovery (paper §5.5) runs in two passes over the log headers:
//
// Pass 1 identifies the snapshot operations (create/delete/activate/
// deactivate notes) and rebuilds the snapshot tree and the epoch
// inheritance graph by replaying them in sequence order.
//
// Pass 2 reconstructs per-epoch validity maps breadth-first down the epoch
// tree: each epoch's view is its parent's view overlaid with the epoch's
// own last-write-wins translations, materialized as CoW differences so
// sharing is preserved. The active epoch's view, sorted by LBA, bulk-loads
// the forward map bottom-up.
//
// With a committed checkpoint on the device (checkpoint.go) recovery is
// tail-bounded instead: the active map, the snapshot tree, and every
// epoch's validity delta are bulk-loaded from the checkpoint's three chunk
// streams, and only headers written after the cut-off — in segments the
// checkpoint's table proves changed — are scanned and replayed on top.
// Anything that cannot be proven intact (a torn or incomplete generation,
// a reclaimed chunk, a cleaner that moved pre-cut-off blocks, a tail event
// the loaded image cannot express) falls back to the full scan; the log
// itself remains the source of truth.
//
// Either path ends with a history reap (reap.go): the full scan has rebuilt
// every epoch ever created. A note the live system could not have written
// — one giving an epoch a parent not older than itself or a second parent,
// or a create reusing an ID or a frozen epoch — is refused: the full scan
// fails, the tail path falls back.
//
// Only the active tree's forward map is built (the paper's explicit design
// choice); snapshots must be re-activated to be read. Writable views that
// were live at crash time are not reconstructed: their never-snapshotted
// epochs are marked deleted and the cleaner reclaims their blocks.

type recNote struct {
	typ   header.Type
	id    SnapshotID
	epoch bitmap.Epoch
	seq   uint64
	addr  nand.PageAddr
}

type recData struct {
	lba   uint64
	epoch bitmap.Epoch
	seq   uint64
	addr  nand.PageAddr
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

// collect files one scanned header under the note or data records recovery
// replays. Checkpoint chunks and translation pages carry coordinates, not
// epochs, and are consumed through the anchor and the GTD, never replayed.
func collect(addr nand.PageAddr, h header.Header, notes *[]recNote, data *[]recData) {
	switch h.Type {
	case header.TypeData:
		*data = append(*data, recData{lba: h.LBA, epoch: bitmap.Epoch(h.Epoch), seq: h.Seq, addr: addr})
	case header.TypeSnapCreate, header.TypeSnapDelete, header.TypeSnapActivate, header.TypeSnapDeactivate:
		*notes = append(*notes, recNote{typ: h.Type, id: SnapshotID(h.LBA), epoch: bitmap.Epoch(h.Epoch), seq: h.Seq, addr: addr})
	}
}

// fullScanRecover is the historical path: scan every live segment's
// headers and rebuild everything bottom-up. Checkpoint chunks are
// deliberately ignored: the full scan is the reference reconstruction and
// trusts only the raw log.
func fullScanRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	f := newShell(cfg, dev, sched)

	// ---- Scan: one pass over all OOB headers. ----
	var (
		notes []recNote
		data  []recData
		scan  = f.NewScan(0)
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
			collect(addr, h, &notes, &data)
			return true
		})
		if err != nil {
			return nil, now, err
		}
	}
	// The full scan rebuilds without the checkpoint and pins nothing, so a
	// stale anchor must not survive into the next reopen: its chunks are
	// garbage now and the cleaner may reclaim them at any time.
	dev.SetAnchor(nil)

	// ---- Pass 1: replay notes in seq order; rebuild tree + epoch graph. ----
	// The cleaner can duplicate a note (copy-forwarded, crash before the
	// source segment's erase); collapse equal-seq duplicates first, keeping
	// the higher address to match the data-entry tie-break.
	sort.Slice(notes, func(i, j int) bool {
		if notes[i].seq != notes[j].seq {
			return notes[i].seq < notes[j].seq
		}
		return notes[i].addr < notes[j].addr
	})
	dedup := notes[:0]
	for _, n := range notes {
		if len(dedup) > 0 && dedup[len(dedup)-1].seq == n.seq {
			dedup[len(dedup)-1] = n
			continue
		}
		dedup = append(dedup, n)
	}
	notes = dedup
	counter := bitmap.Epoch(1)
	activeEpoch := bitmap.Epoch(1)
	deadEpochs := make(map[bitmap.Epoch]bool)
	type liveNote struct {
		addr nand.PageAddr
		live bool
	}
	noteState := make(map[nand.PageAddr]*liveNote)
	createNoteOf := make(map[SnapshotID]nand.PageAddr)

	// The live system only ever forks a new epoch from an older one already
	// in the graph, so a note that does otherwise — a parent not below the
	// child, one the graph does not hold, or a second parent for an epoch
	// already in it — did not come from it. Refusing it keeps the graph a
	// tree rooted at epoch 1 that every walk up from an epoch leaves. So is a
	// create note that reuses a snapshot ID or freezes a frozen epoch.
	graph := make(epochGraph)
	inGraph := func(e bitmap.Epoch) bool {
		_, ok := graph[e]
		return ok || e == 1
	}
	for _, n := range notes {
		switch n.typ {
		case header.TypeSnapCreate:
			frozen := n.epoch
			counter++
			newEpoch := counter
			_, taken := f.tree.ByEpoch(frozen)
			if frozen >= newEpoch || !inGraph(frozen) || taken || n.id < f.tree.nextID {
				return nil, now, fmt.Errorf("iosnap: create note at page %d: snapshot %d cannot freeze epoch %d into epoch %d", n.addr, n.id, frozen, newEpoch)
			}
			graph[newEpoch] = frozen
			parent := f.nearestSnapshotAncestor(graph.parent, frozen)
			snap := &Snapshot{ID: n.id, Epoch: frozen, Parent: parent, noteAddr: n.addr}
			f.tree.add(snap)
			if frozen == activeEpoch {
				activeEpoch = newEpoch
			}
			createNoteOf[n.id] = n.addr
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		case header.TypeSnapDelete:
			if s, ok := f.tree.Lookup(n.id); ok {
				s.Deleted = true
			}
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		case header.TypeSnapActivate:
			newEpoch := n.epoch
			if newEpoch > counter {
				counter = newEpoch
			}
			if s, ok := f.tree.Lookup(n.id); ok {
				if inGraph(newEpoch) || s.Epoch >= newEpoch {
					return nil, now, fmt.Errorf("iosnap: activate note at page %d gives epoch %d the parent %d", n.addr, newEpoch, s.Epoch)
				}
				graph[newEpoch] = s.Epoch
			}
			// The activation's epoch dies with the crash unless a snapshot
			// was later created from it (a create note with frozen=newEpoch
			// resurrects the lineage); assume dead, resurrect below.
			deadEpochs[newEpoch] = true
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		case header.TypeSnapDeactivate:
			deadEpochs[n.epoch] = true
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		}
	}
	// Epochs frozen into snapshots are never dead-by-abandonment, and the
	// continuation epoch allocated at create time keeps its branch alive if
	// it is the active epoch.
	for e := range f.tree.byEpoch {
		delete(deadEpochs, e)
	}
	delete(deadEpochs, activeEpoch)

	f.epochCounter = counter

	// ---- Pass 2: validity breadth-first down the epoch tree; the active
	// epoch's view of it is the forward map. ----
	entries, err := f.rebuildValidity(data, activeEpoch, graph)
	if err != nil {
		return nil, now, err
	}
	f.active = &view{fmap: f.RecoverMap(entries, nil), epoch: activeEpoch, writable: true}
	if s := f.nearestSnapshotAncestorInclusive(graph.parent, activeEpoch); s != nil {
		f.active.parent = s
	}
	f.views = []*view{f.active}
	for e := range deadEpochs {
		if f.vstore.Exists(e) {
			if err := f.vstore.DeleteEpoch(e); err != nil {
				return nil, now, err
			}
		}
	}
	for _, s := range f.tree.byID {
		if s.Deleted && f.vstore.Exists(s.Epoch) {
			if err := f.vstore.DeleteEpoch(s.Epoch); err != nil {
				return nil, now, err
			}
		}
	}
	// Preserve snapshot notes that recovery still depends on: set their
	// bits in the active epoch so the cleaner carries them forward.
	for _, st := range noteState {
		if st.live {
			f.vstore.Set(activeEpoch, int64(st.addr))
		}
	}
	f.reap()
	f.vstore.ResetCoWCounter()

	return f.finishRecovery(now, scan, len(data))
}

// tryTailRecover attempts checkpoint-based recovery via the device anchor.
// It mutates only the candidate FTL, never the device, so a failure at any
// point simply discards the partial state and reports ok=false.
func tryTailRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, bool) {
	anchor := dev.Anchor()
	f := newShell(cfg, dev, sched)

	// ---- Read the anchor's chunks and bucket them by stream type. ----
	chunks, now, ok := f.ReadAnchorChunks(now)
	if !ok {
		return nil, now, false
	}
	streams := make(map[header.Type][]logcore.AnchorChunk)
	for _, c := range chunks {
		streams[c.Type] = append(streams[c.Type], c)
	}
	// Each of the three streams must be complete and decode against the
	// anchor's generation, whose ID is the cut-off; anything less means a
	// torn, mixed or partially-reclaimed checkpoint.
	decoded := make(map[header.Type][]logcore.Section, 3)
	for _, typ := range []header.Type{header.TypeCkptMap, header.TypeCkptTree, header.TypeCkptValid} {
		secs, ok := logcore.AssembleStream(anchor.ID, streams[typ])
		if !ok {
			return nil, now, false
		}
		decoded[typ] = secs
	}
	cutoff := anchor.ID
	mapEntries, gtdEnts, gtdSlots, err := decodeCkptMapStream(decoded[header.TypeCkptMap])
	if err != nil {
		return nil, now, false
	}
	if gtdEnts != nil && !f.GTDUsable(gtdSlots) {
		return nil, now, false
	}
	treeState, err := decodeCkptTree(decoded[header.TypeCkptTree])
	if err != nil {
		return nil, now, false
	}
	epochs, err := decodeCkptValid(decoded[header.TypeCkptValid], f.vstore.BitsPerPage())
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
		notes []recNote
		data  []recData
		scan  = f.NewScan(cutoff)
	)
	for _, rec := range treeState.table {
		scan.Trust(rec)
	}

	// ---- Tail scan: only segments the table proves changed. ----
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
		// Pages below rec.Prog (0 for an unrecorded segment) are
		// checkpoint-covered state.
		done, ok, _ := f.ScanSegment(now, seg, rec.Prog, scan, func(addr nand.PageAddr, h header.Header) bool {
			if h.Seq <= cutoff {
				// A parseable pre-cut-off header in the post-checkpoint
				// region is a cleaner copy of checkpointed state (copied
				// after serialization, crash before the victim's erase).
				// Replaying it would double-apply history the checkpoint
				// already contains — and the full scan resolves such
				// duplicates differently — so the generation is stale.
				return false
			}
			collect(addr, h, &notes, &data)
			return true
		})
		if !ok {
			return nil, now, false
		}
		now = done
	}

	// ---- Replay the tail on top of the loaded image. ----
	f.active = &view{fmap: f.RecoverMap(mapEntries, gtdEnts), epoch: treeState.active, writable: true}
	f.views = []*view{f.active}

	if !f.replayTail(notes, data) {
		return nil, now, false
	}
	if s := f.nearestSnapshotAncestorInclusive(f.vstore.Parent, f.active.epoch); s != nil {
		f.active.parent = s
	}
	f.reap()
	f.vstore.ResetCoWCounter()

	// The anchor's chunks are live recovery state until superseded.
	f.AdoptAnchor(anchor.ID, anchor.Addrs)

	out, done, err := f.finishRecovery(now, scan, len(mapEntries)+len(gtdEnts)+len(notes)+len(data))
	if err != nil {
		return nil, done, false
	}
	out.stats.RecoveryTailBounded = true
	return out, done, true
}

// replayTail applies post-cut-off notes and data, in one global sequence
// order, onto a checkpoint-loaded FTL. It reports false when the tail
// contains an event the loaded image cannot express — a snapshot created
// from an epoch the checkpoint normalized dead, or writes into a live
// non-active epoch (a writable view whose private map was never
// checkpointed) — in which case the caller falls back to the full scan.
func (f *FTL) replayTail(notes []recNote, data []recData) bool {
	type tailRec struct {
		note *recNote
		data *recData
		seq  uint64
		addr nand.PageAddr
	}
	recs := make([]tailRec, 0, len(notes)+len(data))
	for i := range notes {
		recs = append(recs, tailRec{note: &notes[i], seq: notes[i].seq, addr: notes[i].addr})
	}
	for i := range data {
		recs = append(recs, tailRec{data: &data[i], seq: data[i].seq, addr: data[i].addr})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].seq != recs[j].seq {
			return recs[i].seq < recs[j].seq
		}
		return recs[i].addr < recs[j].addr
	})
	// Equal-seq pairs are cleaner duplicates (copy-forwarded, crash before
	// the source erase); keep the higher address, the full scan's tie-break.
	dedup := recs[:0]
	for _, r := range recs {
		if len(dedup) > 0 && dedup[len(dedup)-1].seq == r.seq {
			dedup[len(dedup)-1] = r
			continue
		}
		dedup = append(dedup, r)
	}
	recs = dedup

	// Epochs below the checkpoint's counter were all allocated before it,
	// the reaped ones included. The counter itself may still be free in the
	// store: an activation allocates it just before its note's page, which
	// can be the page that triggered the checkpoint.
	ckptCounter := f.epochCounter
	deadEpochs := make(map[bitmap.Epoch]bool)
	for _, r := range recs {
		if r.note != nil {
			n := r.note
			// The note block is valid in the epoch absorbing primary writes
			// when it was appended (the live writeNote rule).
			f.vstore.Set(f.active.epoch, int64(n.addr))
			switch n.typ {
			case header.TypeSnapCreate:
				frozen := n.epoch
				if deadEpochs[frozen] || (f.vstore.Exists(frozen) && f.vstore.Deleted(frozen)) {
					// The snapshot freezes an epoch the checkpoint serialized
					// as dying at recovery (an activation view's), or one whose
					// tail writes were already dropped; neither can be
					// resurrected from the loaded image.
					return false
				}
				f.epochCounter++
				newEpoch := f.epochCounter
				if _, taken := f.tree.ByEpoch(frozen); taken || frozen >= newEpoch || n.id < f.tree.nextID {
					return false // not a create the live system writes
				}
				if err := f.vstore.CreateEpoch(newEpoch, frozen); err != nil {
					return false
				}
				snap := &Snapshot{ID: n.id, Epoch: frozen, Parent: f.nearestSnapshotAncestor(f.vstore.Parent, frozen), noteAddr: n.addr}
				f.tree.add(snap)
				if frozen == f.active.epoch {
					f.active.epoch = newEpoch
					f.active.parent = snap
				}
			case header.TypeSnapDelete:
				if s, ok := f.tree.Lookup(n.id); ok {
					s.Deleted = true
					if f.vstore.Exists(s.Epoch) && !f.vstore.Deleted(s.Epoch) {
						if err := f.vstore.DeleteEpoch(s.Epoch); err != nil {
							return false
						}
					}
				}
			case header.TypeSnapActivate:
				newEpoch := n.epoch
				if f.vstore.Exists(newEpoch) || newEpoch < ckptCounter {
					return false // a second parent for an epoch already taken
				}
				if newEpoch > f.epochCounter {
					f.epochCounter = newEpoch
				}
				if s, ok := f.tree.Lookup(n.id); ok {
					if s.Epoch >= newEpoch {
						return false
					}
					if err := f.vstore.CreateEpoch(newEpoch, s.Epoch); err != nil {
						return false
					}
				}
				// Dies with the crash unless a later create resurrects it —
				// and resurrection bails above, so dead is final here.
				deadEpochs[newEpoch] = true
			case header.TypeSnapDeactivate:
				if _, frozen := f.tree.ByEpoch(n.epoch); frozen || n.epoch == f.active.epoch || !f.vstore.Exists(n.epoch) {
					return false // only an existing view's own epoch is ever deactivated
				}
				deadEpochs[n.epoch] = true
			}
			continue
		}
		d := r.data
		switch {
		case d.epoch == f.active.epoch:
			if prev, existed := f.active.fmap.Insert(d.lba, uint64(d.addr)); existed {
				f.vstore.Clear(d.epoch, int64(prev))
			}
			f.vstore.Set(d.epoch, int64(d.addr))
		case deadEpochs[d.epoch],
			f.vstore.Exists(d.epoch) && f.vstore.Deleted(d.epoch):
			// A write into an epoch that dies at recovery (an activation
			// view's): the full scan discards these too, just later.
		default:
			// A live non-active epoch — a writable view whose forward map
			// was never checkpointed, so the overwrite chain cannot be
			// replayed. Rare; the full scan handles it.
			return false
		}
	}
	for e := range deadEpochs {
		if f.vstore.Exists(e) && !f.vstore.Deleted(e) {
			if err := f.vstore.DeleteEpoch(e); err != nil {
				return false
			}
		}
	}
	return true
}

// finishRecovery rebuilds the log geometry shared by both recovery paths
// (the engine's pools and head; accounting entries start stale — their
// caches were never built — and the first selection decision rebuilds them
// against the recovered epochs) and charges the modeled reconstruction CPU
// for the processed records.
func (f *FTL) finishRecovery(now sim.Time, scan *logcore.Scan, records int) (*FTL, sim.Time, error) {
	if err := f.RebuildGeometry(scan); err != nil {
		return nil, now, err
	}
	now = now.Add(sim.Duration(records) * reconstructCPUPerEntry)
	f.MaybeClean(now)
	return f, now, nil
}

// epochGraph is the epoch inheritance the full scan replays from the notes,
// child to parent, before the validity store that will hold it exists.
type epochGraph map[bitmap.Epoch]bitmap.Epoch

func (g epochGraph) parent(e bitmap.Epoch) (bitmap.Epoch, bool) {
	p, ok := g[e]
	return p, ok
}

// nearestSnapshotAncestor walks the epoch inheritance upward from e's parent
// (parent answers for an epoch, as bitmap.Store.Parent does) and returns the
// first epoch frozen into a snapshot.
func (f *FTL) nearestSnapshotAncestor(parent func(bitmap.Epoch) (bitmap.Epoch, bool), e bitmap.Epoch) *Snapshot {
	for p, ok := parent(e); ok; p, ok = parent(p) {
		if s, isSnap := f.tree.ByEpoch(p); isSnap {
			return s
		}
	}
	return nil
}

// nearestSnapshotAncestorInclusive also considers e itself.
func (f *FTL) nearestSnapshotAncestorInclusive(parent func(bitmap.Epoch) (bitmap.Epoch, bool), e bitmap.Epoch) *Snapshot {
	if s, ok := f.tree.ByEpoch(e); ok {
		return s
	}
	return f.nearestSnapshotAncestor(parent, e)
}

// rebuildValidity reconstructs every epoch of graph in the validity store,
// breadth-first: an epoch's view is its parent's view overlaid with its own
// last-write-wins translations, applied to the CoW store as differences. The
// active epoch's view is the forward map, returned as its entries: built
// from the same overlay, map and validity cannot disagree, whatever the log
// holds.
func (f *FTL) rebuildValidity(data []recData, active bitmap.Epoch, graph epochGraph) (entries []ftlmap.Entry, err error) {
	// Group data by epoch, resolving within-epoch overwrites. Equal seq
	// means the cleaner duplicated the block and crashed before erasing the
	// source; the copies are identical, pick the higher address.
	type winner struct {
		addr nand.PageAddr
		seq  uint64
	}
	perEpoch := make(map[bitmap.Epoch]map[uint64]winner)
	for _, d := range data {
		m := perEpoch[d.epoch]
		if m == nil {
			m = make(map[uint64]winner)
			perEpoch[d.epoch] = m
		}
		w, ok := m[d.lba]
		if !ok || d.seq > w.seq || (d.seq == w.seq && d.addr > w.addr) {
			m[d.lba] = winner{addr: d.addr, seq: d.seq}
		}
	}

	// children lists for BFS.
	children := make(map[bitmap.Epoch][]bitmap.Epoch)
	for e, p := range graph {
		children[p] = append(children[p], e)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}

	// BFS from the root epoch 1.
	type qent struct {
		epoch  bitmap.Epoch
		parent bitmap.Epoch
		view   map[uint64]winner // lba -> live block as of this epoch
	}
	if err := f.vstore.CreateEpoch(1, bitmap.NoParent); err != nil {
		return nil, err
	}
	rootView := make(map[uint64]winner)
	queue := []qent{{epoch: 1, parent: bitmap.NoParent, view: rootView}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]

		// Overlay this epoch's own winners onto the inherited view,
		// mirroring the inherit-then-diverge behaviour of the live system.
		own := perEpoch[cur.epoch]
		// Deterministic order for reproducibility.
		lbas := make([]uint64, 0, len(own))
		for lba := range own {
			lbas = append(lbas, lba)
		}
		sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
		for _, lba := range lbas {
			w := own[lba]
			if old, ok := cur.view[lba]; ok {
				f.vstore.Clear(cur.epoch, int64(old.addr))
			}
			f.vstore.Set(cur.epoch, int64(w.addr))
			cur.view[lba] = w
		}
		if cur.epoch == active {
			for lba, w := range cur.view {
				entries = append(entries, ftlmap.Entry{Key: lba, Val: uint64(w.addr)})
			}
		}

		kids := children[cur.epoch]
		for i, k := range kids {
			if err := f.vstore.CreateEpoch(k, cur.epoch); err != nil {
				return nil, err
			}
			kv := cur.view
			if i < len(kids)-1 {
				// Siblings diverge: all but the last need their own copy.
				kv = make(map[uint64]winner, len(cur.view))
				for lba, w := range cur.view {
					kv[lba] = w
				}
			}
			queue = append(queue, qent{epoch: k, parent: cur.epoch, view: kv})
		}
	}
	return entries, nil
}
