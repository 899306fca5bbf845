package iosnap

import (
	"fmt"
	"slices"

	"iosnap/internal/bitmap"
	"iosnap/internal/codec"
	"iosnap/internal/ftlmap"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
)

// Snapshot-aware checkpointing. A checkpoint captures, at one serialization
// instant, everything ioSnap's full-scan recovery would otherwise rebuild
// from the whole log, as one stream of four sections:
//
//   - the active forward map, or a paged map's translation directory;
//   - the snapshot tree, the epoch counter, the active epoch, and a segment
//     table with each used segment's erase count, programmed-page count and
//     newest sequence number;
//   - the next snapshot ID and the alias table of reaped epochs;
//   - every epoch's validity delta — its CoW-owned bitmap pages plus its
//     parent link and deleted mark.
//
// History is reaped where it dies (reap.go), so the tree and validity
// sections hold the live epochs and snapshots plus the deleted ones that
// still branch or are still read — not every epoch ever created; recovery
// reaps what it loaded all the same. Each epoch is written as it
// stands: one that dies at a crash — a writable view's, an in-flight
// activation's — is live in the checkpoint, and the mount's replay kills it
// as it kills every live epoch that is neither active nor frozen.
//
// The stream is a sequence of frames of the shared codec (internal/codec;
// each section one frame, typed by its kind) split into sector-sized chunks
// (logcore's transport). The checkpoint ID is f.Seq at serialization and is
// the cut-off: recovery bulk-loads the checkpoint and replays only records
// newer than it, falling back to the full scan whenever anything about the
// generation cannot be proven intact.

// Section kinds of the checkpoint stream: each section is one codec frame of
// its kind's type.
const (
	ckptSecMap   = codec.CkptMap   // active map: count, then count × (lba, addr)
	ckptSecTree  = codec.CkptTree  // counter, active epoch, snapshots, segment table
	ckptSecValid = codec.CkptValid // per-epoch parent/deleted/owned validity pages
	ckptSecGTD   = codec.CkptGTD   // bounded-paged map: the global translation directory
	ckptSecAlias = codec.CkptAlias // next snapshot ID, then count × (reaped epoch, heir)
)

// ckptSnapRec is one serialized snapshot-tree node.
type ckptSnapRec struct {
	id       SnapshotID
	epoch    bitmap.Epoch
	parentID SnapshotID // 0 = no parent
	deleted  bool
	noteAddr nand.PageAddr
}

// ckptEpochRec is one epoch's serialized validity delta.
type ckptEpochRec struct {
	epoch   bitmap.Epoch
	parent  bitmap.Epoch // bitmap.NoParent for the root
	deleted bool
	pages   []bitmap.OwnedPage
}

// ckptTreeState is the decoded tree and alias sections.
type ckptTreeState struct {
	counter bitmap.Epoch
	active  bitmap.Epoch
	snaps   []ckptSnapRec
	table   []logcore.SegRecord
	// From the alias section.
	nextID  SnapshotID
	aliases []bitmap.Reaped
}

// SerializeCheckpoint implements logcore.Policy: it captures the four
// sections at one instant and returns the checkpoint identity plus every
// chunk of their stream. It reaps nothing: every path that could leave a
// reapable epoch has reaped it already (CheckInvariants holds it to that).
func (f *FTL) SerializeCheckpoint() (uint64, [][]byte, error) {
	ckptID := f.Seq

	// The active forward map, in whichever layout the engine serializes it.
	mapData, gtd, err := f.EncodeMapSection()
	if err != nil {
		return 0, nil, err
	}
	mapKind := ckptSecMap
	if gtd {
		mapKind = ckptSecGTD
	}

	// Epoch counter, active epoch, snapshot tree, segment table; then, in
	// its own section, the next snapshot ID and the alias table.
	var tw codec.Writer
	tw.U64(uint64(f.epochCounter))
	tw.U64(uint64(f.active.epoch))
	ids := f.tree.IDs()
	tw.U32(uint32(len(ids)))
	for _, id := range ids {
		s, _ := f.tree.Lookup(id)
		tw.U64(uint64(s.ID))
		tw.U64(uint64(s.Epoch))
		if s.Parent != nil {
			tw.U64(uint64(s.Parent.ID))
		} else {
			tw.U64(0)
		}
		tw.Bool(s.Deleted)
		tw.U64(uint64(s.noteAddr))
	}
	tw.U32(uint32(len(f.UsedSegs)))
	for _, s := range f.UsedSegs {
		f.EncodeSegRecord(&tw, s)
	}
	var aw codec.Writer
	aw.U64(uint64(f.tree.nextID))
	aliases := f.vstore.Aliases()
	aw.U32(uint32(len(aliases)))
	for _, a := range aliases {
		aw.U64(uint64(a.Epoch))
		aw.U64(uint64(a.Heir))
	}

	chunks, err := f.StreamJobs(ckptID, []logcore.Section{
		{Kind: mapKind, Data: mapData},
		{Kind: ckptSecTree, Data: tw.B},
		{Kind: ckptSecAlias, Data: aw.B},
		{Kind: ckptSecValid, Data: f.encodeValidSection()},
	})
	return ckptID, chunks, err
}

// encodeValidSection is the validity section: per-epoch deltas, ascending
// (parents first: epoch numbers grow downward through the inheritance
// graph). Every epoch the store holds is in it, so the buffer is sized up
// front from the page counts and the pages go in whole.
func (f *FTL) encodeValidSection() []byte {
	epochs := f.vstore.Epochs()
	const epochRec = 8 + 8 + 1 + 4 // epoch, parent, deleted, page count
	pageRec := 8 + int(f.vstore.BitsPerPage()/8)
	size := 8 + 4 + epochRec*len(epochs)
	for _, e := range epochs {
		size += pageRec * f.vstore.OwnedPages(e)
	}
	vw := codec.Writer{B: make([]byte, 0, size)}
	vw.U64(uint64(f.vstore.BitsPerPage()))
	vw.U32(uint32(len(epochs)))
	for _, e := range epochs {
		vw.U64(uint64(e))
		p, _ := f.vstore.Parent(e) // NoParent for the root
		vw.U64(uint64(p))
		vw.Bool(f.vstore.Deleted(e))
		pages := f.vstore.ExportEpoch(e)
		vw.U32(uint32(len(pages)))
		for _, pg := range pages {
			vw.U64(uint64(pg.PageIdx))
			vw.U64s(pg.Words)
		}
	}
	return vw.B
}

// orPinsInto overlays the victim's pinned pages — checkpoint chunks and
// live GTD-referenced translation pages — onto its merged validity clone
// so the cleaner's copy order visits them: both are valid in no epoch,
// but both must survive cleaning.
func (f *FTL) orPinsInto(victim int, merged *bitmap.Bitmap) {
	for a := range f.CkptPins {
		if f.Dev.SegmentOf(a) == victim {
			merged.Set(int64(f.Dev.PageIndexOf(a)))
		}
	}
	for a := range f.MapPins {
		if f.Dev.SegmentOf(a) == victim {
			merged.Set(int64(f.Dev.PageIndexOf(a)))
		}
	}
}

// ---- Decode helpers (recovery side). ----

// Section bodies arrive from an image file: every count is proven against
// the bytes that remain (Reader.Count) before it sizes a loop or an
// allocation, and a decoder stops at the reader's first error.

// decodeCkptMap decodes the map section in either layout: the full mapping
// list (tree checkpoints, ckptSecMap) or the global translation directory
// (paged checkpoints, ckptSecGTD). gtd is non-nil exactly when the stream
// held a directory.
func decodeCkptMap(secs []logcore.Section) (entries []ftlmap.Entry, gtd []mapcache.GTDEnt, slotsPer int, err error) {
	for _, s := range secs {
		switch s.Kind {
		case ckptSecMap:
			entries, err = logcore.DecodeMapSection(s.Data)
			return entries, nil, 0, err
		case ckptSecGTD:
			gtd, slotsPer, err = logcore.DecodeGTDSection(s.Data)
			return nil, gtd, slotsPer, err
		}
	}
	return nil, nil, 0, fmt.Errorf("iosnap: checkpoint map section missing")
}

// decodeCkptTree decodes the tree section and the alias section, each of
// which must be consumed exactly. A tree section in any
// other layout — one whose segment records carry more than a segment table
// holds — leaves bytes over and is refused, never read as segment records.
func decodeCkptTree(secs []logcore.Section) (*ckptTreeState, error) {
	ti := slices.IndexFunc(secs, func(s logcore.Section) bool { return s.Kind == ckptSecTree })
	if ti < 0 {
		return nil, fmt.Errorf("iosnap: checkpoint tree section missing")
	}
	r := codec.Reader{B: secs[ti].Data}
	st := &ckptTreeState{
		counter: bitmap.Epoch(r.U64()),
		active:  bitmap.Epoch(r.U64()),
	}
	for i, n := 0, r.Count(uint64(r.U32()), 33); i < n; i++ {
		st.snaps = append(st.snaps, ckptSnapRec{
			id:       SnapshotID(r.U64()),
			epoch:    bitmap.Epoch(r.U64()),
			parentID: SnapshotID(r.U64()),
			deleted:  r.Bool(),
			noteAddr: nand.PageAddr(r.U64()),
		})
	}
	for i, n := 0, r.Count(uint64(r.U32()), logcore.SegRecordSize); i < n && r.Err() == nil; i++ {
		st.table = append(st.table, logcore.DecodeSegRecord(&r))
	}
	if err := decodedAll(&r); err != nil {
		return nil, fmt.Errorf("iosnap: checkpoint tree section: %w", err)
	}
	ai := slices.IndexFunc(secs, func(s logcore.Section) bool { return s.Kind == ckptSecAlias })
	if ai < 0 {
		return nil, fmt.Errorf("iosnap: checkpoint alias section missing")
	}
	r = codec.Reader{B: secs[ai].Data}
	st.nextID = SnapshotID(r.U64())
	for i, n := 0, r.Count(uint64(r.U32()), 16); i < n; i++ {
		st.aliases = append(st.aliases, bitmap.Reaped{Epoch: bitmap.Epoch(r.U64()), Heir: bitmap.Epoch(r.U64())})
	}
	if err := decodedAll(&r); err != nil {
		return nil, fmt.Errorf("iosnap: checkpoint alias section: %w", err)
	}
	return st, nil
}

// decodedAll returns the reader's error, or one for bytes left unread.
func decodedAll(r *codec.Reader) error {
	if r.Err() != nil {
		return r.Err()
	}
	if n := r.Rest(); n != 0 {
		return fmt.Errorf("%d bytes past the last record", n)
	}
	return nil
}

func decodeCkptValid(secs []logcore.Section, bitsPerPage int64) ([]ckptEpochRec, error) {
	for _, s := range secs {
		if s.Kind != ckptSecValid {
			continue
		}
		r := codec.Reader{B: s.Data}
		if got := int64(r.U64()); got != bitsPerPage {
			return nil, fmt.Errorf("iosnap: checkpoint bitmap granularity %d, store uses %d", got, bitsPerPage)
		}
		words := int(bitsPerPage / 64)
		var out []ckptEpochRec
		for i, n := 0, r.Count(uint64(r.U32()), 21); i < n && r.Err() == nil; i++ {
			er := ckptEpochRec{
				epoch:   bitmap.Epoch(r.U64()),
				parent:  bitmap.Epoch(r.U64()),
				deleted: r.Bool(),
			}
			for j, m := 0, r.Count(uint64(r.U32()), 8+8*words); j < m; j++ {
				pg := bitmap.OwnedPage{PageIdx: int64(r.U64()), Words: make([]uint64, words)}
				for w := range pg.Words {
					pg.Words[w] = r.U64()
				}
				er.pages = append(er.pages, pg)
			}
			out = append(out, er)
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("iosnap: checkpoint validity section: %w", r.Err())
		}
		return out, nil
	}
	return nil, fmt.Errorf("iosnap: checkpoint validity section missing")
}
