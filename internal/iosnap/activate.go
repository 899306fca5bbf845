package iosnap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// View is an activated snapshot: a block device whose forward map was
// reconstructed from the log. Readable views serve the frozen state;
// writable views (the paper's design §5.6, prototyped here as an extension)
// absorb writes into a fresh epoch without ever touching the snapshot.
type View struct {
	f    *FTL
	v    *view
	snap *Snapshot
}

// Snapshot returns the snapshot this view was activated from.
func (vw *View) Snapshot() *Snapshot { return vw.snap }

// Writable reports whether the view accepts writes.
func (vw *View) Writable() bool { return vw.v.writable }

// Epoch returns the epoch absorbing this view's writes.
func (vw *View) Epoch() bitmap.Epoch { return vw.v.epoch }

// SectorSize implements blockdev.Device.
func (vw *View) SectorSize() int { return vw.f.cfg.Nand.SectorSize }

// Sectors implements blockdev.Device.
func (vw *View) Sectors() int64 { return vw.f.cfg.UserSectors }

// MapMemory returns the reconstructed forward map's footprint in bytes
// (the right-hand column of the paper's Table 3).
func (vw *View) MapMemory() int64 { return vw.v.fmap.MemoryBytes() }

// MappedSectors returns the number of translations in the view.
func (vw *View) MappedSectors() int { return vw.v.fmap.Len() }

// Read implements blockdev.Device against the activated snapshot.
func (vw *View) Read(now sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if vw.v.closed {
		return now, ErrViewClosed
	}
	_, done, err := vw.f.ReadRun(vw.v.fmap, now, lba, buf)
	return done, err
}

// Write implements blockdev.Device for writable views.
func (vw *View) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	if vw.v.closed {
		return now, ErrViewClosed
	}
	if !vw.v.writable {
		return now, ErrReadOnlyView
	}
	_, done, err := vw.f.WriteRun(vw.v.fmap, uint64(vw.v.epoch), now, lba, data)
	return done, err
}

// CreateSnapshot snapshots a *writable* view, forking the snapshot tree
// exactly as the paper's Figure 4 shows (activate S1, modify, create S3).
func (vw *View) CreateSnapshot(now sim.Time) (*Snapshot, sim.Time, error) {
	if vw.v.closed {
		return nil, now, ErrViewClosed
	}
	if !vw.v.writable {
		return nil, now, ErrReadOnlyView
	}
	return vw.f.createSnapshotFrom(vw.v, now)
}

// Deactivate releases the view: a note records the action, the view's map
// memory is freed, and (for writable views) any writes never captured by a
// snapshot become garbage for the cleaner.
func (vw *View) Deactivate(now sim.Time) (sim.Time, error) {
	if vw.v.closed {
		return now, ErrViewClosed
	}
	f := vw.f
	_, done, err := f.writeNote(now, header.TypeSnapDeactivate, vw.snap.ID, vw.v.epoch)
	if err != nil {
		return now, err
	}
	vw.v.closed = true
	for i, v := range f.views {
		if v == vw.v {
			f.views = append(f.views[:i], f.views[i+1:]...)
			break
		}
	}
	f.acct.bumpViewGen()
	// If this view's epoch froze into a snapshot, the *current* epoch is a
	// fresh continuation holding only un-snapshotted writes; either way the
	// view's live epoch is now garbage.
	if f.vstore.Exists(vw.v.epoch) && !f.vstore.Deleted(vw.v.epoch) {
		if _, isSnap := f.tree.ByEpoch(vw.v.epoch); !isSnap {
			if err := f.vstore.DeleteEpoch(vw.v.epoch); err != nil {
				return now, err
			}
		}
	}
	vw.v.fmap = nil
	return done, nil
}

// actEntry is one candidate translation found during the activation scan.
type actEntry struct {
	addr nand.PageAddr
	seq  uint64
}

// Activation is an in-progress (or finished) snapshot activation. It runs
// as a background task on the FTL's scheduler so its log-scan traffic
// contends with — and can be rate-limited away from — foreground I/O
// (paper §5.6, Figure 9).
type Activation struct {
	f        *FTL
	snap     *Snapshot
	writable bool
	epoch    bitmap.Epoch
	budget   *ratelimit.Budget

	scanList    []int               // segments to scan, in order
	scanPos     map[int]int         // segment -> index in scanList
	segCursor   int                 // next index into scanList
	entries     map[uint64]actEntry // lba -> current best
	reconIdx    int                 // reconstruction progress
	sorted      []ftlmap.Entry
	sortedBuilt bool

	done        bool
	completedAt sim.Time
	view        *View
	err         error

	// phase timing for experiments
	ScanTime  sim.Duration
	ReconTime sim.Duration
}

// Name implements sim.Task.
func (a *Activation) Name() string {
	return fmt.Sprintf("activate(snap %d)", a.snap.ID)
}

// Ready reports whether the activation completed.
func (a *Activation) Ready() bool { return a.done }

// Snapshot returns the snapshot being activated.
func (a *Activation) Snapshot() *Snapshot { return a.snap }

// Err returns the terminal error, if any.
func (a *Activation) Err() error { return a.err }

// CompletedAt returns the virtual time the activation finished.
func (a *Activation) CompletedAt() sim.Time { return a.completedAt }

// View returns the activated view once Ready, else an error.
func (a *Activation) View() (*View, error) {
	if !a.done {
		return nil, ErrNotReady
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.view, nil
}

// Activate begins activating snapshot id. The activate note is written
// synchronously (making the operation durable and incrementing the epoch
// counter, §5.8); the scan and forward-map reconstruction proceed in the
// background under the given rate limit (zero WorkSleep = unthrottled).
// The returned time covers only the synchronous part.
func (f *FTL) Activate(now sim.Time, id SnapshotID, limit ratelimit.WorkSleep, writable bool) (*Activation, sim.Time, error) {
	act, done, err := f.beginActivation(now, id, limit, writable)
	if err != nil {
		return nil, now, err
	}
	f.Sched.Schedule(done, act)
	return act, done, nil
}

// ActivateSync activates snapshot id and runs the scan/reconstruction to
// completion before returning, yielding the view and the completion time.
func (f *FTL) ActivateSync(now sim.Time, id SnapshotID, limit ratelimit.WorkSleep, writable bool) (*View, sim.Time, error) {
	act, t, err := f.beginActivation(now, id, limit, writable)
	if err != nil {
		return nil, now, err
	}
	for !act.done {
		next, fin := act.Run(t)
		if fin {
			break
		}
		if next < t {
			next = t
		}
		t = next
	}
	if act.err != nil {
		return nil, t, act.err
	}
	return act.view, act.completedAt, nil
}

func (f *FTL) beginActivation(now sim.Time, id SnapshotID, limit ratelimit.WorkSleep, writable bool) (*Activation, sim.Time, error) {
	if f.Closed() {
		return nil, now, ErrClosed
	}
	snap, ok := f.tree.Lookup(id)
	if !ok {
		return nil, now, fmt.Errorf("%w: %d", ErrNoSuchSnapshot, id)
	}
	if snap.Deleted {
		return nil, now, fmt.Errorf("%w: %d", ErrSnapshotDeleted, id)
	}
	// The durable note is written before any epoch state is created (same
	// order as createSnapshotFrom): if the note program fails, nothing has
	// been allocated yet, so a device fault here cannot leak a live epoch
	// that would pin snapshot blocks forever.
	f.epochCounter++
	newEpoch := f.epochCounter
	_, done, err := f.writeNote(now, header.TypeSnapActivate, id, newEpoch)
	if err != nil {
		f.epochCounter--
		return nil, now, err
	}
	if err := f.vstore.CreateEpoch(newEpoch, snap.Epoch); err != nil {
		return nil, now, fmt.Errorf("iosnap: creating activation epoch: %w", err)
	}
	f.epochParent[newEpoch] = snap.Epoch
	act := &Activation{
		f:        f,
		snap:     snap,
		writable: writable,
		epoch:    newEpoch,
		budget:   ratelimit.NewBudget(limit),
		entries:  make(map[uint64]actEntry),
	}
	if f.cfg.SelectiveScan {
		lineage := make(map[bitmap.Epoch]bool)
		for _, e := range snap.Lineage() {
			lineage[e] = true
		}
		act.scanList = f.presence.segmentsFor(lineage)
	} else {
		act.scanList = make([]int, f.cfg.Nand.Segments)
		for i := range act.scanList {
			act.scanList[i] = i
		}
	}
	act.scanPos = make(map[int]int, len(act.scanList))
	for i, seg := range act.scanList {
		act.scanPos[seg] = i
	}
	f.activations = append(f.activations, act)
	f.stats.SnapshotActivations++
	return act, done, nil
}

// Run implements sim.Task: one rate-limited quantum of scan or
// reconstruction work.
func (a *Activation) Run(now sim.Time) (sim.Time, bool) {
	if a.done {
		return 0, true // cancelled (or already finished): drop the quantum
	}
	f := a.f
	segs := len(a.scanList)

	// Phase 1: scan the relevant log segments' headers, batched per quantum.
	if a.segCursor < segs {
		batch := f.cfg.ActivationBatch
		if a.budget.Config().Enabled() {
			batch = 1
		}
		for i := 0; i < batch && a.segCursor < segs; i++ {
			seg := a.scanList[a.segCursor]
			a.segCursor++
			start := now
			oobs, done, err := f.DevScanSegmentOOB(now, seg)
			if err != nil {
				return a.fail(now, fmt.Errorf("iosnap: activation scan of segment %d: %w", seg, err))
			}
			now = done
			a.ScanTime += done.Sub(start)
			for idx, oob := range oobs {
				if oob == nil {
					continue
				}
				h, err := header.Unmarshal(oob)
				if err != nil {
					// A torn write from a previous power loss: the page holds
					// garbage, so it cannot be part of any snapshot. Tolerate
					// it — the cleaner will reclaim the page — but keep count.
					f.stats.TornPagesSkipped++
					continue
				}
				if h.Type != header.TypeData {
					continue
				}
				addr := f.Dev.Addr(seg, idx)
				// The snapshot's validity map is the oracle: a page is part
				// of the snapshot iff its bit is set in the frozen epoch.
				if !f.vstore.Test(a.snap.Epoch, int64(addr)) {
					continue
				}
				if cur, ok := a.entries[h.LBA]; !ok || h.Seq > cur.seq {
					a.entries[h.LBA] = actEntry{addr: addr, seq: h.Seq}
				}
			}
			if sleep, exhausted := a.budget.Charge(done.Sub(start)); exhausted {
				return now.Add(sleep), false
			}
		}
		if a.segCursor < segs {
			return now, false
		}
	}

	// Scan finished: sort entries once for bottom-up map construction.
	// (This runs on the quantum after the last segment, since the budget
	// may have exhausted exactly on that scan.)
	if !a.sortedBuilt {
		a.sorted = make([]ftlmap.Entry, 0, len(a.entries))
		for lba, e := range a.entries {
			a.sorted = append(a.sorted, ftlmap.Entry{Key: lba, Val: uint64(e.addr)})
		}
		sortEntries(a.sorted)
		a.sortedBuilt = true
	}

	// Phase 2: reconstruction, charged per entry and also rate-limited.
	const reconChunk = 4096
	for a.reconIdx < len(a.sorted) {
		n := len(a.sorted) - a.reconIdx
		if n > reconChunk {
			n = reconChunk
		}
		cost := sim.Duration(n) * f.cfg.ReconstructCPUPerEntry
		now = now.Add(cost)
		a.ReconTime += cost
		a.reconIdx += n
		if sleep, exhausted := a.budget.Charge(cost); exhausted {
			return now.Add(sleep), false
		}
	}

	// Build the compact (bulk-loaded) tree and publish the view. Activated
	// views always get the in-RAM tree: only the active view's map is paged
	// (the paper's design choice — snapshot maps are rebuilt on demand).
	fm := mapcache.FromTree(ftlmap.BulkLoad(a.sorted, 1.0))
	v := &view{fmap: fm, epoch: a.epoch, writable: a.writable, parent: a.snap, fromActivation: true}
	f.views = append(f.views, v)
	// The view's epoch just moved from the "frozen" to the "backs a view"
	// class without the epoch set changing; invalidate the merge caches.
	f.acct.bumpViewGen()
	a.view = &View{f: f, v: v, snap: a.snap}
	a.done = true
	a.completedAt = now
	f.dropActivation(a)
	return now, true
}

func (a *Activation) fail(now sim.Time, err error) (sim.Time, bool) {
	a.err = err
	a.done = true
	a.completedAt = now
	a.f.dropActivation(a)
	return now, true
}

func (f *FTL) dropActivation(a *Activation) {
	for i, x := range f.activations {
		if x == a {
			f.activations = append(f.activations[:i], f.activations[i+1:]...)
			return
		}
	}
}

// onBlockMoved keeps in-flight activations consistent when the cleaner
// moves a block out from under the scan: an entry already collected is
// re-pointed, and a block that jumped from an unscanned segment into an
// already-scanned one is inserted directly.
func (a *Activation) onBlockMoved(old, new nand.PageAddr, h header.Header) {
	if a.done || h.Type != header.TypeData {
		return
	}
	if !a.f.vstore.Test(a.snap.Epoch, int64(new)) {
		return
	}
	if cur, ok := a.entries[h.LBA]; ok && cur.addr == old {
		cur.addr = new
		a.entries[h.LBA] = cur
		a.fixSorted(h.LBA, new)
		return
	}
	// A block that jumped from a not-yet-scanned segment into one the scan
	// will never (or no longer) visit must be inserted directly.
	if !a.scanWillVisit(a.f.Dev.SegmentOf(old)) {
		return // already scanned: the entry existed and was handled above
	}
	if a.scanWillVisit(a.f.Dev.SegmentOf(new)) {
		return // the scan will pick it up at its new home
	}
	if cur, ok := a.entries[h.LBA]; !ok || h.Seq > cur.seq {
		a.entries[h.LBA] = actEntry{addr: new, seq: h.Seq}
		a.fixSorted(h.LBA, new)
	}
}

// scanWillVisit reports whether the scan has yet to visit segment seg.
func (a *Activation) scanWillVisit(seg int) bool {
	pos, inList := a.scanPos[seg]
	return inList && pos >= a.segCursor
}

// fixSorted patches the already-sorted slice during phase 2 (rare).
func (a *Activation) fixSorted(lba uint64, addr nand.PageAddr) {
	if !a.sortedBuilt {
		return
	}
	i := sort.Search(len(a.sorted), func(i int) bool { return a.sorted[i].Key >= lba })
	if i < len(a.sorted) && a.sorted[i].Key == lba {
		a.sorted[i].Val = uint64(addr)
	}
}

// ErrCancelled is the terminal error of a cancelled activation.
var ErrCancelled = errors.New("iosnap: activation cancelled")

// Cancel aborts an in-flight activation: its remaining scan quanta become
// no-ops, its partial state is dropped, and the epoch allocated for the
// would-be view is deleted so the cleaner ignores it. Cancelling a finished
// activation returns its terminal state unchanged.
func (a *Activation) Cancel(now sim.Time) error {
	if a.done {
		return a.err
	}
	a.err = ErrCancelled
	a.done = true
	a.completedAt = now
	a.f.dropActivation(a)
	if a.f.vstore.Exists(a.epoch) && !a.f.vstore.Deleted(a.epoch) {
		if err := a.f.vstore.DeleteEpoch(a.epoch); err != nil {
			return err
		}
	}
	a.entries = nil
	a.sorted = nil
	return ErrCancelled
}

// sortEntries orders map entries by key for a bottom-up map build. Keys
// are unique (they come out of a map keyed by LBA), so any correct sort
// yields the same order; slices.SortFunc does it without sort.Slice's
// reflection-based swapper, which was a fifth of a snapshot-heavy server's
// CPU.
func sortEntries(entries []ftlmap.Entry) {
	slices.SortFunc(entries, func(a, b ftlmap.Entry) int { return cmp.Compare(a.Key, b.Key) })
}
