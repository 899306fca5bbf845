package iosnap

import (
	"fmt"
	"slices"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// SnapshotID identifies a snapshot on one device.
type SnapshotID uint64

// Snapshot is one node of the snapshot tree (paper Figure 4). A snapshot
// freezes the epoch that was active when it was created; the data reachable
// from a snapshot is the union of its lineage's epochs.
type Snapshot struct {
	ID        SnapshotID
	Epoch     bitmap.Epoch
	Parent    *Snapshot // nil for snapshots of the initial lineage root
	Children  []*Snapshot
	Deleted   bool
	CreatedAt sim.Time

	noteAddr nand.PageAddr // location of the snap-create note
}

// Tree is the snapshot tree: the live snapshots plus the deleted ones whose
// epochs the history reaper (reap.go) has not forgotten yet — tombstones
// that still branch, or that a view or a job still reads. A reaped
// snapshot's record leaves the tree and its children move up to the nearest
// surviving ancestor. IDs ascend and are never reused, so an ID below
// nextID with no record is a deleted snapshot.
type Tree struct {
	byID    map[SnapshotID]*Snapshot
	byEpoch map[bitmap.Epoch]*Snapshot
	nextID  SnapshotID
}

// NewTree returns an empty snapshot tree.
func NewTree() *Tree {
	return &Tree{
		byID:    make(map[SnapshotID]*Snapshot),
		byEpoch: make(map[bitmap.Epoch]*Snapshot),
		nextID:  1,
	}
}

// Lookup returns the snapshot with the given id.
func (t *Tree) Lookup(id SnapshotID) (*Snapshot, bool) {
	s, ok := t.byID[id]
	return s, ok
}

// ByEpoch returns the snapshot that froze the given epoch.
func (t *Tree) ByEpoch(e bitmap.Epoch) (*Snapshot, bool) {
	s, ok := t.byEpoch[e]
	return s, ok
}

// find returns the live snapshot id names, or ErrSnapshotDeleted for a
// deleted one (tombstoned or already reaped), or ErrNoSuchSnapshot.
func (t *Tree) find(id SnapshotID) (*Snapshot, error) {
	s, ok := t.byID[id]
	switch {
	case ok && !s.Deleted:
		return s, nil
	case ok || (id > 0 && id < t.nextID):
		return nil, fmt.Errorf("%w: %d", ErrSnapshotDeleted, id)
	}
	return nil, fmt.Errorf("%w: %d", ErrNoSuchSnapshot, id)
}

// Len returns the number of snapshot records: the live snapshots and the
// deleted ones not reaped yet.
func (t *Tree) Len() int { return len(t.byID) }

// Live returns the number of non-deleted snapshots.
func (t *Tree) Live() int {
	n := 0
	for _, s := range t.byID {
		if !s.Deleted {
			n++
		}
	}
	return n
}

// IDs returns all snapshot ids in ascending order.
func (t *Tree) IDs() []SnapshotID {
	out := make([]SnapshotID, 0, len(t.byID))
	for id := range t.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// add registers a snapshot built by the FTL or by recovery.
func (t *Tree) add(s *Snapshot) {
	t.byID[s.ID] = s
	t.byEpoch[s.Epoch] = s
	if s.Parent != nil {
		s.Parent.Children = append(s.Parent.Children, s)
	}
	if s.ID >= t.nextID {
		t.nextID = s.ID + 1
	}
}

// remove drops a reaped snapshot's record; its children move up to its
// parent, their nearest surviving ancestor.
func (t *Tree) remove(s *Snapshot) {
	delete(t.byID, s.ID)
	delete(t.byEpoch, s.Epoch)
	if p := s.Parent; p != nil {
		p.Children = slices.DeleteFunc(p.Children, func(c *Snapshot) bool { return c == s })
		p.Children = append(p.Children, s.Children...)
	}
	for _, c := range s.Children {
		c.Parent = s.Parent
	}
	s.Children = nil
}

// CreateSnapshot snapshots the active device: the current epoch is frozen
// into a new snapshot node and the active view moves to a fresh epoch that
// inherits the frozen validity state.
//
// Per the paper (§5.8) this is four steps — the application quiesces writes
// (implicit here: the simulation is single-threaded), a snapshot-create
// note is appended to the log, the epoch counter increments, and the
// snapshot joins the tree. The whole operation costs one page program.
func (f *FTL) CreateSnapshot(now sim.Time) (*Snapshot, sim.Time, error) {
	if f.Closed() {
		return nil, now, ErrClosed
	}
	return f.createSnapshotFrom(f.active, now)
}

func (f *FTL) createSnapshotFrom(v *view, now sim.Time) (*Snapshot, sim.Time, error) {
	id := f.tree.nextID
	frozen := v.epoch

	noteAddr, done, err := f.writeNote(now, header.TypeSnapCreate, id, frozen)
	if err != nil {
		return nil, now, err
	}

	f.epochCounter++
	newEpoch := f.epochCounter
	if err := f.vstore.CreateEpoch(newEpoch, frozen); err != nil {
		return nil, now, fmt.Errorf("iosnap: creating epoch %d: %w", newEpoch, err)
	}

	snap := &Snapshot{
		ID:        id,
		Epoch:     frozen,
		Parent:    v.parent,
		CreatedAt: now,
		noteAddr:  noteAddr,
	}
	f.tree.add(snap)
	v.epoch = newEpoch
	unpinned := v.parent
	v.parent = snap
	f.stats.SnapshotCreates++
	if unpinned != nil && unpinned.Deleted {
		// The view no longer pins the deleted snapshot it descended from.
		f.reap()
	}
	return snap, done, nil
}

// DeleteSnapshot marks a snapshot deleted: a note makes the deletion
// durable, the tree node is tombstoned, and the snapshot's exclusively-held
// blocks become reclaimable — the cleaner frees them in the background, so
// deletion itself costs one page program (paper §5.8). The epoch and the
// record go at once unless something still reads them (reap.go).
func (f *FTL) DeleteSnapshot(now sim.Time, id SnapshotID) (sim.Time, error) {
	if f.Closed() {
		return now, ErrClosed
	}
	snap, err := f.tree.find(id)
	if err != nil {
		return now, err
	}
	_, done, err := f.writeNote(now, header.TypeSnapDelete, id, snap.Epoch)
	if err != nil {
		return now, err
	}
	snap.Deleted = true
	if err := f.vstore.DeleteEpoch(snap.Epoch); err != nil {
		return now, fmt.Errorf("iosnap: deleting epoch %d: %w", snap.Epoch, err)
	}
	// The create note stays on the log (one 4 KB block per snapshot ever
	// created — the paper's "insignificant" fixed metadata): the full scan
	// replays the whole note history to reproduce epoch numbering, so even
	// reaped snapshots keep their create note. The epoch, its validity
	// pages and the record are forgotten here, unless the epoch still
	// branches or a view, an activation or an export reads it: then the
	// deactivation or the scan's end that lets it go reaps it (reap.go).
	f.stats.SnapshotDeletes++
	f.reap()
	return done, nil
}

// Snapshots returns the live snapshots in creation order.
func (f *FTL) Snapshots() []*Snapshot {
	var out []*Snapshot
	for _, id := range f.tree.IDs() {
		s, _ := f.tree.Lookup(id)
		if !s.Deleted {
			out = append(out, s)
		}
	}
	return out
}
