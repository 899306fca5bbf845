package iosnap

import (
	"fmt"
	"slices"

	"iosnap/internal/bitmap"
)

// Reference implementations the tests compare the production paths against.

// mergeSegment computes the merged validity for one segment from scratch.
// The hot paths read the incremental caches in gcacct.go instead; this stays
// as the reference the accounting cross-check compares against.
func (f *FTL) mergeSegment(seg int) *bitmap.Bitmap {
	pps := int64(f.cfg.Nand.PagesPerSegment)
	return f.vstore.MergeRange(f.vstore.LiveEpochs(), int64(seg)*pps, int64(seg+1)*pps)
}

// selectVictimScratch re-derives the victim by a full re-merge of every
// used segment — the pre-incremental algorithm: an oldest-first scan that
// keeps the first strict maximum of reclaimable pages. Kept (uncharged) as
// the reference the accounting cross-check and BenchmarkVictimSelect compare
// against.
func (f *FTL) selectVictimScratch() (victim, mergedValid int) {
	pps := f.cfg.Nand.PagesPerSegment
	best, bestInvalid, bestMerged := -1, 0, 0
	for _, seg := range f.UsedSegs {
		if seg == f.HeadSeg || seg == f.GCVictim {
			continue
		}
		mv := f.mergeSegment(seg).Count()
		if invalid := pps - mv - f.PinnedInSeg(seg); invalid > bestInvalid {
			best, bestInvalid, bestMerged = seg, invalid, mv
		}
	}
	return best, bestMerged
}

// CompareRecovered checks that two independently recovered FTLs (typically
// tail-bounded vs full-scan over copies of the same device image) agree on
// the log geometry and on all durable state (compareState).
//
// Deliberately not compared: snapshot note addresses and creation times.
func CompareRecovered(a, b *FTL) error {
	if a.Seq != b.Seq {
		return fmt.Errorf("compare: sequence number %d vs %d", a.Seq, b.Seq)
	}
	if a.HeadSeg != b.HeadSeg || a.HeadIdx != b.HeadIdx {
		return fmt.Errorf("compare: log head %d/%d vs %d/%d", a.HeadSeg, a.HeadIdx, b.HeadSeg, b.HeadIdx)
	}
	if fmt.Sprint(a.UsedSegs) != fmt.Sprint(b.UsedSegs) {
		return fmt.Errorf("compare: UsedSegs %v vs %v", a.UsedSegs, b.UsedSegs)
	}
	if fmt.Sprint(a.FreeSegs) != fmt.Sprint(b.FreeSegs) {
		return fmt.Errorf("compare: FreeSegs %v vs %v", a.FreeSegs, b.FreeSegs)
	}
	for s := range a.SegLastSeq {
		if a.SegLastSeq[s] != b.SegLastSeq[s] {
			return fmt.Errorf("compare: segment %d last seq %d vs %d", s, a.SegLastSeq[s], b.SegLastSeq[s])
		}
	}
	return compareState(a, b)
}

// compareState checks that two FTLs agree on the active epoch, the epoch
// counter and the active forward map, entry for entry; on the validity
// store's epochs with their parents and deletion marks and the alias table
// of reaped epochs; on the snapshot tree and the next snapshot ID; and, in
// every live epoch, on the validity of every page — notes included, each
// valid in the epoch that was active when it was written. A mount compares
// equal to another mount of the same image, and to the live FTL it crashed
// from once that has reaped its history, if it had no view open.
func compareState(a, b *FTL) error {
	if a.active.epoch != b.active.epoch {
		return fmt.Errorf("compare: active epoch %d vs %d", a.active.epoch, b.active.epoch)
	}
	if a.epochCounter != b.epochCounter {
		return fmt.Errorf("compare: epoch counter %d vs %d", a.epochCounter, b.epochCounter)
	}

	// Active forward map, entry for entry.
	if a.active.fmap.Len() != b.active.fmap.Len() {
		return fmt.Errorf("compare: forward map %d entries vs %d", a.active.fmap.Len(), b.active.fmap.Len())
	}
	var merr error
	a.active.fmap.All(func(lba, addr uint64) bool {
		got, ok := b.active.fmap.Lookup(lba)
		if !ok || got != addr {
			merr = fmt.Errorf("compare: LBA %d -> %d vs %d (present=%v)", lba, addr, got, ok)
			return false
		}
		return true
	})
	if merr != nil {
		return merr
	}

	// Epoch graph: same epochs, same tombstones, same parent links.
	aEps := a.vstore.Epochs()
	bEps := b.vstore.Epochs()
	if len(aEps) != len(bEps) {
		return fmt.Errorf("compare: %d epochs vs %d", len(aEps), len(bEps))
	}
	for _, e := range aEps {
		if !b.vstore.Exists(e) {
			return fmt.Errorf("compare: epoch %d missing from second store", e)
		}
		if a.vstore.Deleted(e) != b.vstore.Deleted(e) {
			return fmt.Errorf("compare: epoch %d deleted=%v vs %v", e, a.vstore.Deleted(e), b.vstore.Deleted(e))
		}
		ap, aok := a.vstore.Parent(e)
		if bp, bok := b.vstore.Parent(e); ap != bp || aok != bok {
			return fmt.Errorf("compare: epoch %d parent %d (%v) vs %d (%v)", e, ap, aok, bp, bok)
		}
	}
	if aa, ba := a.vstore.Aliases(), b.vstore.Aliases(); !slices.Equal(aa, ba) {
		return fmt.Errorf("compare: alias tables %v vs %v", aa, ba)
	}
	if a.tree.nextID != b.tree.nextID {
		return fmt.Errorf("compare: next snapshot ID %d vs %d", a.tree.nextID, b.tree.nextID)
	}

	// Snapshot tree: same IDs; per ID the same epoch, deletion mark, parent.
	aIDs := a.tree.IDs()
	bIDs := b.tree.IDs()
	if fmt.Sprint(aIDs) != fmt.Sprint(bIDs) {
		return fmt.Errorf("compare: snapshot IDs %v vs %v", aIDs, bIDs)
	}
	for _, id := range aIDs {
		sa, _ := a.tree.Lookup(id)
		sb, _ := b.tree.Lookup(id)
		if sa.Epoch != sb.Epoch || sa.Deleted != sb.Deleted {
			return fmt.Errorf("compare: snapshot %d (epoch %d, deleted=%v) vs (epoch %d, deleted=%v)",
				id, sa.Epoch, sa.Deleted, sb.Epoch, sb.Deleted)
		}
		pa, pb := SnapshotID(0), SnapshotID(0)
		if sa.Parent != nil {
			pa = sa.Parent.ID
		}
		if sb.Parent != nil {
			pb = sb.Parent.ID
		}
		if pa != pb {
			return fmt.Errorf("compare: snapshot %d parent %d vs %d", id, pa, pb)
		}
	}

	// Per-page validity, across every live epoch.
	for _, e := range a.vstore.LiveEpochs() {
		for p := int64(0); p < a.cfg.Nand.TotalPages(); p++ {
			if av, bv := a.vstore.Test(e, p), b.vstore.Test(e, p); av != bv {
				return fmt.Errorf("compare: page %d validity in epoch %d: %v vs %v", p, e, av, bv)
			}
		}
	}
	return nil
}
