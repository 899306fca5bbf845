package iosnap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
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
	if err != nil {
		err = vw.f.whyFull(err)
	}
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
// memory is freed, (for writable views) any writes never captured by a
// snapshot become garbage for the cleaner, and the history only the view
// still read is reaped (reap.go).
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
	f.reap()
	return done, nil
}

// actCand is one candidate translation found by a log scan: a data page
// valid in an epoch the scan reads.
type actCand struct {
	lba  uint64
	addr nand.PageAddr
	seq  uint64
}

// candRange is the run of scan.cands one scanned segment contributed.
type candRange struct{ lo, hi int }

// scan is the one background log scan, the part an activation and an export
// share. It runs on the FTL's scheduler so its traffic contends with — and
// can be rate-limited away from — foreground I/O (paper §5.6, Figure 9).
//
// The scan is driven by validity bits: a full scan's by the bits of the
// frozen epoch it reads, a based one's by the bits valid in exactly one of
// that epoch and its base — the only pages that can differ between the two
// images (an epoch holds one page per LBA), so the scan costs the delta.
// Per segment it reads those words once, decodes only the headers of the
// pages they name and appends them to cands. Scan order is address order
// (scanList ascends, and so do the pages of a segment), which is what lets
// the cleaner find the candidate of a block it moves by address
// (onBlockMoved) with no per-page index. When the scan ends, finishScan hands
// the job its candidates in LBA order and keeps the translations the job
// builds from them, which the cleaner re-points by LBA until the job ends.
type scan struct {
	f         *FTL
	epoch     bitmap.Epoch // the frozen epoch whose image the job reads
	baseEpoch bitmap.Epoch // with based, the epoch the job diffs against
	based     bool
	viewEpoch bitmap.Epoch // the epoch an activation allocated for its view (zero for an export)
	budget    *ratelimit.Budget

	scanList  []int          // segments to scan, ascending
	segCursor int            // next index into scanList
	valid     *bitmap.Bitmap // the epochs' bits of the segment being scanned

	// Scan phase. A candidate keeps the address it was scanned at for as long
	// as the scan runs, so each scanned[i] stays sorted by address; where the
	// cleaner has since taken the block is in moved, applied by finishScan.
	cands   []actCand             // in discovery order
	scanned []candRange           // scanned[i]: the candidates of scanList[i]
	moved   map[nand.PageAddr]int // current address -> index in cands, for blocks moved since discovery

	// After the scan: the job's translations, ascending by LBA, and for a
	// based scan the LBAs the base holds and the target does not, ascending.
	sorted      []ftlmap.Entry
	deletes     []uint64
	sortedBuilt bool

	done        bool
	err         error
	completedAt sim.Time
}

// beginScan registers a scan of the pages valid in epoch or, when based, of
// those valid in exactly one of epoch and base. A full scan lists every
// segment, or with SelectiveScan only the segments where epoch holds a bit
// (the paper's §7 "only those segments that have data corresponding to the
// snapshot"); a based scan lists only the segments where the two epochs
// differ. Either way a segment left out costs no OOB scan at all.
func (f *FTL) beginScan(limit ratelimit.WorkSleep, epoch, base bitmap.Epoch, based bool) *scan {
	s := &scan{f: f, epoch: epoch, baseEpoch: base, based: based, budget: ratelimit.NewBudget(limit), valid: bitmap.New(int64(f.cfg.Nand.PagesPerSegment))}
	// Every candidate the scan will find is a page it reads in a listed
	// segment: size the slice once instead of growing it by doubling under
	// the scan.
	n, pps := 0, int64(f.cfg.Nand.PagesPerSegment)
	if based {
		for seg := range f.cfg.Nand.Segments {
			lo := int64(seg) * pps
			if f.vstore.XorRangeInto(epoch, base, lo, lo+pps, s.valid) {
				n += s.valid.Count()
				s.scanList = append(s.scanList, seg)
			}
		}
	} else {
		for seg, c := range f.vstore.CountSpans(epoch, pps) {
			if c > 0 || !f.cfg.SelectiveScan {
				n += c
				s.scanList = append(s.scanList, seg)
			}
		}
	}
	s.cands = make([]actCand, 0, n)
	f.scans = append(f.scans, s)
	return s
}

// Err returns the terminal error, if any.
func (s *scan) Err() error { return s.err }

// CompletedAt returns the virtual time the job finished.
func (s *scan) CompletedAt() sim.Time { return s.completedAt }

// step runs the scan's share of one quantum: unthrottled it scans up to
// activationBatch segments, under a rate limit one, each charged to the
// budget. It returns the time the quantum reached and whether the quantum
// ends there (segments left, or the budget exhausted). On a closed FTL it
// touches nothing and returns ErrClosed.
func (s *scan) step(now sim.Time) (sim.Time, bool, error) {
	f := s.f
	if f.Closed() {
		return now, true, ErrClosed
	}
	segs := len(s.scanList)
	batch := activationBatch
	if s.budget.Config().Enabled() {
		batch = 1
	}
	for i := 0; i < batch && s.segCursor < segs; i++ {
		seg := s.scanList[s.segCursor]
		s.segCursor++
		start := now
		oobs, done, err := f.DevScanSegmentOOB(now, seg)
		if err != nil {
			return now, true, fmt.Errorf("iosnap: scan of segment %d: %w", seg, err)
		}
		now = done
		// The validity maps are the oracle: a page is a candidate iff its bit
		// is set in the epoch, or for a based scan in exactly one of the two.
		base := f.Dev.Addr(seg, 0)
		lo, hi := int64(base), int64(base)+s.valid.Len()
		if s.based {
			f.vstore.XorRangeInto(s.epoch, s.baseEpoch, lo, hi, s.valid)
		} else {
			f.vstore.ReadRangeInto(s.epoch, lo, hi, s.valid)
		}
		first := len(s.cands)
		for idx, ok := s.valid.NextSet(0); ok; idx, ok = s.valid.NextSet(idx + 1) {
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
			s.cands = append(s.cands, actCand{lba: h.LBA, addr: base + nand.PageAddr(idx), seq: h.Seq})
		}
		s.scanned = append(s.scanned, candRange{first, len(s.cands)})
		if sleep, exhausted := s.budget.Charge(done.Sub(start)); exhausted {
			return now.Add(sleep), true, nil
		}
	}
	return now, s.segCursor < segs, nil
}

// finishScan ends the scan phase: it applies the cleaner's re-points, orders
// the candidates by LBA and keeps the translations build makes of them.
func (s *scan) finishScan(build func([]actCand) []ftlmap.Entry) {
	for addr, i := range s.moved {
		s.cands[i].addr = addr
	}
	s.sorted = build(sortCands(s.cands))
	s.sortedBuilt = true
	s.cands, s.scanned, s.moved, s.valid = nil, nil, nil, nil
}

// end finishes the job at now with err (nil on success): its remaining
// quanta become no-ops, the cleaner stops calling it, the scan's state is
// dropped, and so is the history only its pins kept (reap.go).
func (s *scan) end(now sim.Time, err error) {
	s.done, s.err, s.completedAt = true, err, now
	s.f.scans = slices.DeleteFunc(s.f.scans, func(x *scan) bool { return x == s })
	s.cands, s.scanned, s.moved, s.valid, s.sorted, s.deletes = nil, nil, nil, nil, nil, nil
	s.f.reap()
}

// classify turns the scan's LBA-sorted candidates into the job's writes and,
// for a based scan, its deletes, testing each page at its current address:
// per LBA, the page only the target holds is written; an LBA with no such
// page but one only the base holds was trimmed, a delete. A page the scan met
// twice (the cleaner carried it across the scan frontier) counts once, at the
// address of the first meeting: the cleaner keeps that one current, as
// foldCands relies on.
func (s *scan) classify(cands []actCand) []ftlmap.Entry {
	vs := s.f.vstore
	var writes []ftlmap.Entry
	for lo, hi := 0, 0; lo < len(cands); lo = hi {
		write, trimmed := -1, false
		for hi = lo; hi < len(cands) && cands[hi].lba == cands[lo].lba; hi++ {
			c := cands[hi]
			if slices.ContainsFunc(cands[lo:hi], func(d actCand) bool { return d.seq == c.seq }) {
				continue
			}
			inTgt := vs.Test(s.epoch, int64(c.addr))
			inBase := s.based && vs.Test(s.baseEpoch, int64(c.addr))
			switch {
			case inTgt && !inBase:
				write = hi
			case inBase && !inTgt:
				trimmed = true
			}
		}
		if write >= 0 {
			writes = append(writes, ftlmap.Entry{Key: cands[write].lba, Val: uint64(cands[write].addr)})
		} else if trimmed {
			s.deletes = append(s.deletes, cands[lo].lba)
		}
	}
	return writes
}

// fail ends the job with err, and an activation's epoch with it (an export
// has none). That epoch inherits every bit of the snapshot's; left live it
// would keep the snapshot's blocks merged-valid after the snapshot itself is
// deleted, and a checkpoint would persist it as live.
func (s *scan) fail(now sim.Time, err error) (sim.Time, bool) {
	if vs := s.f.vstore; vs.Exists(s.viewEpoch) && !vs.Deleted(s.viewEpoch) {
		if derr := vs.DeleteEpoch(s.viewEpoch); derr != nil {
			err = errors.Join(err, derr)
		}
	}
	s.end(now, err)
	return now, true
}

// runToEnd runs a job's quanta back to back, each starting when the last one
// ended, until the job finishes, and returns the time the last one started.
func runToEnd(job sim.Task, t sim.Time) sim.Time {
	for {
		next, fin := job.Run(t)
		if fin {
			return t
		}
		t = max(t, next)
	}
}

// Activation is an in-progress (or finished) snapshot activation: the log
// scan over the snapshot's epoch, then the forward map's reconstruction.
type Activation struct {
	*scan
	snap     *Snapshot
	base     *View // nil for a full activation
	writable bool
	reconIdx int // delta entries (sorted, then deletes) charged for so far
	view     *View
}

// Name implements sim.Task.
func (a *Activation) Name() string {
	return fmt.Sprintf("activate(snap %d)", a.snap.ID)
}

// Ready reports whether the activation completed.
func (a *Activation) Ready() bool { return a.done }

// Snapshot returns the snapshot being activated.
func (a *Activation) Snapshot() *Snapshot { return a.snap }

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
	act, done, err := f.beginActivation(now, id, limit, writable, nil)
	if err != nil {
		return nil, now, err
	}
	f.Sched.Schedule(done, act)
	return act, done, nil
}

// ActivateSync activates snapshot id and runs the scan/reconstruction to
// completion before returning, yielding the view and the completion time.
func (f *FTL) ActivateSync(now sim.Time, id SnapshotID, limit ratelimit.WorkSleep, writable bool) (*View, sim.Time, error) {
	return f.activateSync(now, id, limit, writable, nil)
}

// ActivateFrom activates snapshot id read-only, unthrottled and to
// completion, building its map from base, a live read-only view of this
// device: a nil base is ActivateSync without a rate limit.
func (f *FTL) ActivateFrom(now sim.Time, id SnapshotID, base *View) (*View, sim.Time, error) {
	return f.activateSync(now, id, ratelimit.WorkSleep{}, false, base)
}

func (f *FTL) activateSync(now sim.Time, id SnapshotID, limit ratelimit.WorkSleep, writable bool, base *View) (*View, sim.Time, error) {
	act, t, err := f.beginActivation(now, id, limit, writable, base)
	if err != nil {
		return nil, now, err
	}
	t = runToEnd(act, t)
	if act.err != nil {
		return nil, t, act.err
	}
	return act.view, act.completedAt, nil
}

func (f *FTL) beginActivation(now sim.Time, id SnapshotID, limit ratelimit.WorkSleep, writable bool, base *View) (*Activation, sim.Time, error) {
	if f.Closed() {
		return nil, now, ErrClosed
	}
	if base != nil {
		switch {
		case base.f != f:
			return nil, now, errors.New("iosnap: activation base is a view of another device")
		case base.v.closed:
			return nil, now, fmt.Errorf("iosnap: activation base: %w", ErrViewClosed)
		case base.v.writable:
			return nil, now, errors.New("iosnap: activation base must be a read-only view")
		}
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
	act := &Activation{snap: snap, base: base, writable: writable}
	if base == nil {
		act.scan = f.beginScan(limit, snap.Epoch, 0, false)
	} else {
		act.scan = f.beginScan(limit, snap.Epoch, base.v.epoch, true)
	}
	act.viewEpoch = newEpoch
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
	if a.base != nil && a.base.v.closed {
		// The base's epoch is gone, and the cleaner no longer keeps its
		// bits or its map current.
		return a.fail(now, fmt.Errorf("iosnap: activation base: %w", ErrViewClosed))
	}
	now, yield, err := a.step(now)
	if err != nil {
		return a.fail(now, err)
	}
	if yield {
		return now, false
	}

	// Scan finished: fold the candidates once for bottom-up map construction,
	// or classify them into the delta against the base. (This runs on the
	// quantum after the last segment when the budget exhausted exactly on
	// that scan.)
	if !a.sortedBuilt {
		if a.base == nil {
			a.finishScan(foldCands)
		} else {
			a.finishScan(a.classify)
		}
	}

	// Reconstruction, charged per entry — per delta entry for a based
	// activation — and also rate-limited.
	const reconChunk = 4096
	for entries := len(a.sorted) + len(a.deletes); a.reconIdx < entries; {
		n := entries - a.reconIdx
		if n > reconChunk {
			n = reconChunk
		}
		cost := sim.Duration(n) * reconstructCPUPerEntry
		now = now.Add(cost)
		a.reconIdx += n
		if sleep, exhausted := a.budget.Charge(cost); exhausted {
			return now.Add(sleep), false
		}
	}

	// Build the compact (bulk-loaded) tree and publish the view: from the
	// scan, or as the base's map with the delta merged in, packed the same.
	// Activated views always get the in-RAM tree: only the active view's map
	// is paged (the paper's design choice — snapshot maps are rebuilt on
	// demand).
	var tree *ftlmap.Tree
	if a.base == nil {
		tree = ftlmap.BulkLoad(a.sorted)
	} else {
		tree = ftlmap.BulkMerge(a.base.v.fmap.(*ftlmap.Tree), a.sorted, a.deletes)
	}
	v := &view{fmap: tree, epoch: a.viewEpoch, writable: a.writable, parent: a.snap}
	f.views = append(f.views, v)
	// The view's epoch just moved from the "frozen" to the "backs a view"
	// class without the epoch set changing; invalidate the merge caches.
	f.acct.bumpViewGen()
	a.view = &View{f: f, v: v, snap: a.snap}
	a.end(now, nil)
	return now, true
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

// onBlockMoved keeps an in-flight scan consistent when the cleaner moves a
// block of its epochs out from under it. Which candidate, if any, sits at the
// old address is a question the scan's own order answers, with no index kept
// per scanned page:
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
// job's translations are sorted by LBA, and the lookup is by LBA again.
func (s *scan) onBlockMoved(old, new nand.PageAddr, h header.Header) {
	if s.done || h.Type != header.TypeData || !s.holds(new) {
		return
	}
	if s.sortedBuilt {
		i, ok := slices.BinarySearchFunc(s.sorted, h.LBA, func(e ftlmap.Entry, lba uint64) int {
			return cmp.Compare(e.Key, lba)
		})
		if ok && s.sorted[i].Val == uint64(old) {
			s.sorted[i].Val = uint64(new)
		}
		return
	}
	i, known := s.moved[old]
	if known {
		delete(s.moved, old)
	} else if i, known = s.scannedAt(old); !known {
		if !s.scanWillVisit(s.f.Dev.SegmentOf(old)) || s.scanWillVisit(s.f.Dev.SegmentOf(new)) {
			return
		}
		i = len(s.cands)
		s.cands = append(s.cands, actCand{lba: h.LBA, addr: new, seq: h.Seq})
	}
	if s.moved == nil {
		s.moved = make(map[nand.PageAddr]int)
	}
	s.moved[new] = i
}

// holds reports whether the page at addr is one the scan reads: valid in
// its epoch, or for a based scan in exactly one of the two.
func (s *scan) holds(addr nand.PageAddr) bool {
	in := s.f.vstore.Test(s.epoch, int64(addr))
	if s.based {
		return in != s.f.vstore.Test(s.baseEpoch, int64(addr))
	}
	return in
}

// scanWillVisit reports whether the scan has yet to visit segment seg.
func (s *scan) scanWillVisit(seg int) bool {
	pos, listed := slices.BinarySearch(s.scanList, seg)
	return listed && pos >= s.segCursor
}

// scannedAt returns the index of the candidate the scan found at addr.
func (s *scan) scannedAt(addr nand.PageAddr) (int, bool) {
	pos, listed := slices.BinarySearch(s.scanList, s.f.Dev.SegmentOf(addr))
	if !listed || pos >= len(s.scanned) {
		return 0, false
	}
	r := s.scanned[pos]
	i, ok := slices.BinarySearchFunc(s.cands[r.lo:r.hi], addr, func(c actCand, addr nand.PageAddr) int {
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
	if !a.done {
		a.fail(now, ErrCancelled)
	}
	return a.err
}
