package iosnap

import (
	"slices"

	"iosnap/internal/bitmap"
)

// History reaping. Deleting a snapshot is one note (paper §5.8): its epoch
// stays in the validity store and its record in the tree, and nothing
// foreground ever pays for them again — but a checkpoint serializes, and a
// mount reads back, everything there. So each checkpoint
// (SerializeCheckpoint, the periodic task's and Close's) and each recovery
// path, once it has rebuilt its state, first forgets the history no reader
// needs (bitmap.Store.Reap):
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
//
// Reaping never runs on a write, a delete or a clean: nothing it changes is
// visible to the foreground (no live epoch's view moves, no page is copied,
// the cleaner's merge caches stay exact), so a run that never checkpoints
// behaves exactly as before, CoW counts and all. It is confluent — the
// result is the same however the history was reaped along the way — which
// is what keeps a tail-bounded mount of a reaped checkpoint equal to a full
// scan that rebuilds the whole history and reaps it at once.

// reapPinned lists the epochs a reap must keep whatever their state: every
// view's epoch and the snapshot it descends from (its record is the view's
// parent), and the epochs an in-flight activation or export reads.
func (f *FTL) reapPinned() []bitmap.Epoch {
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
	return pins
}

// reap forgets the history no reader needs (see above).
func (f *FTL) reap() {
	pins := f.reapPinned()
	reaped := f.vstore.Reap(func(e bitmap.Epoch) bool { return slices.Contains(pins, e) })
	for _, r := range reaped {
		if s, ok := f.tree.ByEpoch(r.Epoch); ok {
			f.tree.remove(s)
		}
	}
}
