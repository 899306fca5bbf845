package iosnap

import (
	"slices"

	"iosnap/internal/bitmap"
)

// History reaping. Deleting a snapshot is one note (paper §5.8), but its
// epoch and its record need not outlive the last reader of its history. So
// wherever history dies — a snapshot delete (DeleteSnapshot), a view's
// deactivation (View.Deactivate), the end of a scan, where an activation or
// an export drops its pins (scan.end), and a snapshot create that moves a
// view off the deleted snapshot it descended from — and once more after a
// recovery has replayed the log, the FTL forgets the history no reader needs
// (bitmap.Store.Reap):
//
//   - a deleted epoch with no child is dropped with its bitmap pages;
//   - a deleted epoch with one child is spliced out, the child adopting by
//     pointer the pages it still inherited from it;
//   - a deleted epoch with two or more children stays, as do the epochs a
//     view, an in-flight activation or an export still reads (reapPinned).
//
// Its snapshot record leaves the tree with it. Data pages on flash keep the
// reaped epoch's number in their headers; the store's alias table maps it to
// the heir that now holds its place (Resolve), and every consumer of a
// header's epoch — the invariant checker among them — resolves it there.
// Since every path that can make an epoch reapable reaps, a checkpoint finds
// nothing left to reap (CheckInvariants fails on a reapable epoch).
//
// No live epoch's view moves, so the cleaner's merge caches stay exact. No
// page is copied by the reap itself; a later write or re-point in an heir
// finds the pages it adopted already its own and copies none of them. It is
// confluent — the result is the same however the history was
// reaped along the way — which is what keeps a tail-bounded mount of a
// checkpoint equal to a full scan that rebuilds the whole history and reaps
// it at once.

// reapPinned reports the epochs a reap must keep whatever their state: every
// view's epoch and the snapshot it descends from (its record is the view's
// parent), and the epochs an in-flight activation or export reads.
func (f *FTL) reapPinned() func(bitmap.Epoch) bool {
	var pins []bitmap.Epoch
	for _, v := range f.views {
		pins = append(pins, v.epoch)
		if v.parent != nil {
			pins = append(pins, v.parent.Epoch)
		}
	}
	for _, s := range f.scans {
		pins = append(pins, s.epoch)
		if s.based {
			pins = append(pins, s.baseEpoch)
		}
		if s.viewEpoch != 0 {
			pins = append(pins, s.viewEpoch)
		}
	}
	return func(e bitmap.Epoch) bool { return slices.Contains(pins, e) }
}

// reap forgets the history no reader needs (see above).
func (f *FTL) reap() {
	for _, r := range f.vstore.Reap(f.reapPinned()) {
		if s, ok := f.tree.ByEpoch(r.Epoch); ok {
			f.tree.remove(s)
		}
	}
}
