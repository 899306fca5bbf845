package iosnap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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

// actCand is one candidate translation found by the activation scan: a data
// page valid in the snapshot's epoch.
type actCand struct {
	lba  uint64
	addr nand.PageAddr
	seq  uint64
}

// candRange is the run of Activation.cands one scanned segment contributed.
type candRange struct{ lo, hi int }

// Activation is an in-progress (or finished) snapshot activation. It runs
// as a background task on the FTL's scheduler so its log-scan traffic
// contends with — and can be rate-limited away from — foreground I/O
// (paper §5.6, Figure 9).
//
// The scan is driven by the snapshot epoch's validity bits: per segment it
// reads the epoch's words once, decodes only the headers of the pages they
// name and appends them to cands. Scan order is address order (scanList
// ascends, and so do the pages of a segment), which is what lets the cleaner
// find the candidate of a block it moves by address (onBlockMoved) with no
// per-page index. When the scan ends, finishScan turns cands into the sorted,
// duplicate-free entry list the bottom-up map build wants.
type Activation struct {
	f        *FTL
	snap     *Snapshot
	writable bool
	epoch    bitmap.Epoch
	budget   *ratelimit.Budget

	scanList  []int          // segments to scan, ascending
	segCursor int            // next index into scanList
	valid     *bitmap.Bitmap // the snapshot epoch's bits of the segment being scanned

	// Scan phase. A candidate keeps the address it was scanned at for as long
	// as the scan runs, so each scanned[i] stays sorted by address; where the
	// cleaner has since taken the block is in moved, applied by finishScan.
	cands   []actCand             // in discovery order
	scanned []candRange           // scanned[i]: the candidates of scanList[i]
	moved   map[nand.PageAddr]int // current address -> index in cands, for blocks moved since discovery

	// Reconstruction phase: the final translations, ascending by LBA.
	sorted      []ftlmap.Entry
	sortedBuilt bool
	reconIdx    int

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
	snap, err := f.tree.find(id)
	if err != nil {
		return nil, now, err
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
		valid:    bitmap.New(int64(f.cfg.Nand.PagesPerSegment)),
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
	// Every candidate the scan will find is a page valid in the snapshot's
	// epoch in one of these segments: size the slice once instead of growing
	// it by doubling under the scan.
	n, pps := 0, int64(f.cfg.Nand.PagesPerSegment)
	for _, seg := range act.scanList {
		n += f.vstore.CountValid(snap.Epoch, int64(seg)*pps, int64(seg+1)*pps)
	}
	act.cands = make([]actCand, 0, n)
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
		batch := activationBatch
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
			// The snapshot's validity map is the oracle: a page is part of
			// the snapshot iff its bit is set in the frozen epoch.
			base := f.Dev.Addr(seg, 0)
			f.vstore.ReadRangeInto(a.snap.Epoch, int64(base), int64(base)+a.valid.Len(), a.valid)
			lo := len(a.cands)
			for idx, ok := a.valid.NextSet(0); ok; idx, ok = a.valid.NextSet(idx + 1) {
				oob := oobs[idx]
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
				a.cands = append(a.cands, actCand{lba: h.LBA, addr: base + nand.PageAddr(idx), seq: h.Seq})
			}
			a.scanned = append(a.scanned, candRange{lo, len(a.cands)})
			if sleep, exhausted := a.budget.Charge(done.Sub(start)); exhausted {
				return now.Add(sleep), false
			}
		}
		if a.segCursor < segs {
			return now, false
		}
	}

	// Scan finished: sort and fold the candidates once for bottom-up map
	// construction. (This runs on the quantum after the last segment, since
	// the budget may have exhausted exactly on that scan.)
	if !a.sortedBuilt {
		a.finishScan()
	}

	// Phase 2: reconstruction, charged per entry and also rate-limited.
	const reconChunk = 4096
	for a.reconIdx < len(a.sorted) {
		n := len(a.sorted) - a.reconIdx
		if n > reconChunk {
			n = reconChunk
		}
		cost := sim.Duration(n) * reconstructCPUPerEntry
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

// finishScan ends the scan phase: it applies the cleaner's re-points, orders
// the candidates by LBA and keeps one translation per LBA.
func (a *Activation) finishScan() {
	for addr, i := range a.moved {
		a.cands[i].addr = addr
	}
	a.sorted = foldCands(sortCands(a.cands))
	a.sortedBuilt = true
	a.cands, a.scanned, a.moved, a.valid = nil, nil, nil, nil
}

// sortCands orders candidates by LBA, stably — equal LBAs keep discovery
// order, which foldCands' tie rule needs. It is an LSD radix sort on 11-bit
// digits whose passes stop at the highest set bit of any LBA (two passes up
// to 4 Mi sectors); the result is cands or a buffer of the same size.
func sortCands(cands []actCand) []actCand {
	const digitBits = 11
	const digitMask = 1<<digitBits - 1
	var anyLBA uint64
	for i := range cands {
		anyLBA |= cands[i].lba
	}
	if len(cands) < 2 || anyLBA == 0 {
		return cands
	}
	src, dst := cands, make([]actCand, len(cands))
	for shift := uint(0); anyLBA>>shift != 0; shift += digitBits {
		var next [1 << digitBits]int // per digit: how many, then where the next one goes
		for i := range src {
			next[src[i].lba>>shift&digitMask]++
		}
		at := 0
		for d, n := range next {
			next[d] = at
			at += n
		}
		for i := range src {
			d := src[i].lba >> shift & digitMask
			dst[next[d]] = src[i]
			next[d]++
		}
		src, dst = dst, src
	}
	return src
}

// foldCands turns LBA-sorted candidates into map entries, one per LBA: the
// candidate with the highest sequence number, the first discovered among
// equals. Within one epoch an LBA has one valid page, so an LBA has several
// candidates only when the cleaner carried its block across the scan
// frontier and the scan met it a second time.
func foldCands(cands []actCand) []ftlmap.Entry {
	out := make([]ftlmap.Entry, 0, len(cands))
	for i := 0; i < len(cands); {
		best := cands[i]
		for i++; i < len(cands) && cands[i].lba == best.lba; i++ {
			if cands[i].seq > best.seq {
				best = cands[i]
			}
		}
		out = append(out, ftlmap.Entry{Key: best.lba, Val: uint64(best.addr)})
	}
	return out
}

func (a *Activation) fail(now sim.Time, err error) (sim.Time, bool) {
	if derr := a.abort(now, err); derr != nil {
		a.err = errors.Join(err, derr)
	}
	return now, true
}

// abort ends an unfinished activation with err: its remaining quanta become
// no-ops, its partial state is dropped, and the epoch allocated for the
// would-be view is deleted. That epoch inherits every bit of the snapshot's;
// left live it would keep the snapshot's blocks merged-valid after the
// snapshot itself is deleted, and a checkpoint would persist it as live.
func (a *Activation) abort(now sim.Time, err error) error {
	a.err = err
	a.done = true
	a.completedAt = now
	a.f.dropActivation(a)
	a.cands, a.scanned, a.moved, a.valid, a.sorted = nil, nil, nil, nil, nil
	if a.f.vstore.Exists(a.epoch) && !a.f.vstore.Deleted(a.epoch) {
		return a.f.vstore.DeleteEpoch(a.epoch)
	}
	return nil
}

func (f *FTL) dropActivation(a *Activation) {
	for i, x := range f.activations {
		if x == a {
			f.activations = append(f.activations[:i], f.activations[i+1:]...)
			return
		}
	}
}

// onBlockMoved keeps an in-flight activation consistent when the cleaner
// moves a block of its snapshot out from under it. Which candidate, if any,
// sits at the old address is a question the scan's own order answers, with
// no index kept per scanned page:
//
//   - a block that has moved before (or jumped in, below) is in moved under
//     its current address;
//   - any other block of a scanned segment has sat where the scan found it,
//     and the segment's candidates are sorted by that address: binary search;
//   - a block that jumped from a segment the scan has yet to visit into one
//     it will not visit (any more) would be missed, so it is appended here.
//
// A block of a segment still to be scanned that stays in such a segment needs
// nothing: the scan meets it at its new home. Once the scan has ended the
// translations are final and sorted by LBA, and the lookup is by LBA again.
func (a *Activation) onBlockMoved(old, new nand.PageAddr, h header.Header) {
	if a.done || h.Type != header.TypeData {
		return
	}
	if !a.f.vstore.Test(a.snap.Epoch, int64(new)) {
		return
	}
	if a.sortedBuilt {
		i, ok := slices.BinarySearchFunc(a.sorted, h.LBA, func(e ftlmap.Entry, lba uint64) int {
			return cmp.Compare(e.Key, lba)
		})
		if ok && a.sorted[i].Val == uint64(old) {
			a.sorted[i].Val = uint64(new)
		}
		return
	}
	i, known := a.moved[old]
	if known {
		delete(a.moved, old)
	} else if i, known = a.scannedAt(old); !known {
		if !a.scanWillVisit(a.f.Dev.SegmentOf(old)) || a.scanWillVisit(a.f.Dev.SegmentOf(new)) {
			return
		}
		i = len(a.cands)
		a.cands = append(a.cands, actCand{lba: h.LBA, addr: new, seq: h.Seq})
	}
	if a.moved == nil {
		a.moved = make(map[nand.PageAddr]int)
	}
	a.moved[new] = i
}

// scanWillVisit reports whether the scan has yet to visit segment seg.
func (a *Activation) scanWillVisit(seg int) bool {
	pos, listed := slices.BinarySearch(a.scanList, seg)
	return listed && pos >= a.segCursor
}

// scannedAt returns the index of the candidate the scan found at addr.
func (a *Activation) scannedAt(addr nand.PageAddr) (int, bool) {
	pos, listed := slices.BinarySearch(a.scanList, a.f.Dev.SegmentOf(addr))
	if !listed || pos >= len(a.scanned) {
		return 0, false
	}
	r := a.scanned[pos]
	i, ok := slices.BinarySearchFunc(a.cands[r.lo:r.hi], addr, func(c actCand, addr nand.PageAddr) int {
		return cmp.Compare(c.addr, addr)
	})
	return r.lo + i, ok
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
	if err := a.abort(now, ErrCancelled); err != nil {
		return err
	}
	return ErrCancelled
}
