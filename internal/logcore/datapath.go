package logcore

// The foreground data path, built around batches. A multi-sector request is
// one *run*: the forward map is charged one mapCPUCost per leaf the run spans
// in a maximally-packed tree (ftlmap.RunSpan) instead of one per sector,
// translations move through the run operations (InsertRun / LookupRange /
// DeleteRange), the policy flips validity once per programmed chunk
// (Policy.RunCommitted), and the NAND sees one batch call per log-head chunk.
// Each batch operation is checked against its per-element equivalent in its
// own package (ftlmap's run operations against a Go map, nand's per-page
// calls, bitmap's per-bit flips); the whole path is pinned by the seeded runs
// in both FTLs' datapath_equiv_test.go.
//
// Partial failure is accounted honestly: when the device fails mid-run, the
// sectors that completed stay committed (map, validity, stats) and the
// returned time reflects the work actually consumed.

import (
	"fmt"
	"slices"

	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// dataPathScratch holds the per-log reusable buffers of the batched data
// path; the simulation is single-threaded, so one set suffices. addrs,
// datas, oobs and oobBuf are AppendRun's run, and addrs ReadRun's lookups
// too. No append nests inside another's use of them: an append or a read
// fills them only after its allocation or map faults — the only steps that
// can run a clean or flush a translation page — have returned, and nothing
// from there to the end of its use (encoding, the device calls, the head
// seal, WriteRun's commitRun) appends.
type dataPathScratch struct {
	addrs    []nand.PageAddr
	datas    [][]byte
	oobs     [][]byte
	oobBuf   []byte   // flat backing store for oobs: header.Len bytes per page
	rdatas   [][]byte // DevReadPages results, valid until its next call
	roobs    [][]byte
	scanOOBs [][]byte // DevScanSegmentOOB's result, valid until its next call
	entries  []ftlmap.Entry
	prevs    []uint64
	vals     []uint64
	found    []bool
	secIdx   []int

	// keepPrev and keepDel append a displaced page to prevs: InsertRun's and
	// DeleteRange's callbacks. Init builds them once, because a closure
	// passed through the mapcache.Map interface escapes, and one built per
	// call would cost the data path an allocation.
	keepPrev func(i int, prev uint64)
	keepDel  func(lba, prev uint64)

	mapMiss  []uint64        // translation-page fault lists (mappage.go)
	mapAddrs []nand.PageAddr // their flash addresses for the batch read
	mapPage  []byte          // flushMapPage's encoded sector
}

// Read implements blockdev.Device on the device's own map. Unmapped sectors
// read as zeros. Reads that fail mid-run report the sectors completed before
// the failure in UserReads/BytesRead and return the virtual time already
// consumed.
func (l *Log) Read(now sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if l.closed {
		return now, ErrClosed
	}
	completed, done, err := l.ReadRun(l.ActiveMap, now, lba, buf)
	l.stats.UserReads += int64(completed)
	l.stats.BytesRead += int64(completed) * int64(l.cfg.Nand.SectorSize)
	return done, err
}

// WriteActive appends a run to the log on behalf of the device's own map,
// stamping epoch into the block headers. Like Read, a mid-run device failure
// leaves the completed sectors committed and counted.
func (l *Log) WriteActive(now sim.Time, epoch uint64, lba int64, data []byte) (sim.Time, error) {
	if l.closed {
		return now, ErrClosed
	}
	completed, done, err := l.WriteRun(l.ActiveMap, epoch, now, lba, data)
	l.stats.UserWrites += int64(completed)
	l.stats.BytesWritten += int64(completed) * int64(l.cfg.Nand.SectorSize)
	return done, err
}

// ReadRun serves a run read against m (the device's map or an activated
// view's). It returns the number of sectors completed (all of them unless
// the device failed mid-run), the completion time of the work performed, and
// the first error.
func (l *Log) ReadRun(m mapcache.Map, now sim.Time, lba int64, buf []byte) (completed int, done sim.Time, err error) {
	ss := l.cfg.Nand.SectorSize
	if len(buf)%ss != 0 {
		return 0, now, fmt.Errorf("%w: %d", ErrBadLength, len(buf))
	}
	n := len(buf) / ss
	if err := l.CheckIO(lba, n); err != nil {
		return 0, now, err
	}
	span := ftlmap.RunSpan(n)
	l.stats.BatchDescents += int64(span)
	t := now.Add(sim.Duration(span) * mapCPUCost)
	// Paged map: fault the run's translation pages in (charged) before the
	// map is consulted. A tree passes through untimed.
	if t, err = l.mapEnsure(t, m, uint64(lba), n); err != nil {
		return 0, t, err
	}
	done = t

	// Resolve the run's translations; unmapped sectors read as zeros.
	addrs := l.ws.addrs[:0]
	secIdx := l.ws.secIdx[:0]
	vals, found := l.lookupScratch(n)
	m.LookupRange(uint64(lba), vals, found)
	for i := 0; i < n; i++ {
		if found[i] {
			addrs = append(addrs, nand.PageAddr(vals[i]))
			secIdx = append(secIdx, i)
			found[i] = false // leave the scratch all-false for reuse
		} else {
			clear(buf[i*ss : (i+1)*ss])
		}
	}
	l.ws.addrs, l.ws.secIdx = addrs, secIdx
	if len(addrs) == 0 {
		return n, done, nil
	}
	l.stats.BatchPages += int64(len(addrs))
	l.stats.BatchNandCalls++

	datas, _, k, d, err := l.DevReadPages(t, addrs)
	for j := 0; j < k; j++ {
		copy(buf[secIdx[j]*ss:(secIdx[j]+1)*ss], datas[j])
	}
	if d > done {
		done = d
	}
	if err != nil {
		return secIdx[k], done, fmt.Errorf("logcore: reading LBA %d: %w", lba+int64(secIdx[k]), err)
	}
	return n, done, nil
}

// WriteRun appends a run to the log on behalf of m, the device's map or a
// writable view's: the run lands in per-segment chunks at the head under
// headers stamped with epoch, m absorbs it with one descent per touched
// leaf, and the policy flips validity per chunk. Each chunk is one
// AppendRun, so head advancement — forced cleaning, degradation, background
// scheduling — behaves exactly as for a single page. The host time the
// flips cost (ioSnap's CoW page copies) is charged in aggregate at the end
// of the run.
func (l *Log) WriteRun(m mapcache.Map, epoch uint64, now sim.Time, lba int64, data []byte) (completed int, done sim.Time, err error) {
	if l.frozen {
		return 0, now, ErrFrozen
	}
	ss := l.cfg.Nand.SectorSize
	if len(data)%ss != 0 {
		return 0, now, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	n := len(data) / ss
	if err := l.CheckIO(lba, n); err != nil {
		return 0, now, err
	}
	span := ftlmap.RunSpan(n)
	l.stats.BatchDescents += int64(span)
	at := now.Add(sim.Duration(span) * mapCPUCost)
	if at, err = l.mapEnsure(at, m, uint64(lba), n); err != nil {
		return 0, at, err
	}
	done = at
	written := 0
	var flipCost sim.Duration
	var firstErr error
	for written < n && firstErr == nil {
		lba0 := uint64(lba) + uint64(written)
		addrs, k, at2, d, err := l.AppendRun(at, l.cfg.DataReserve(), n-written, func(j int) (header.Header, []byte) {
			i := written + j
			return header.Header{Type: header.TypeData, LBA: lba0 + uint64(j), Epoch: epoch}, data[i*ss : (i+1)*ss]
		})
		if len(addrs) == 0 {
			firstErr = err
			break
		}
		at = at2
		done = max(done, d)
		l.stats.BatchPages += int64(len(addrs))
		l.stats.BatchNandCalls++
		if err != nil {
			firstErr = fmt.Errorf("logcore: programming LBA %d: %w", lba+int64(written+k), err)
		}
		flipCost += l.commitRun(m, epoch, lba0, addrs[:k])
		written += k
	}
	return written, done.Add(flipCost), firstErr
}

// commitRun installs translations for a run of freshly-programmed pages
// (addrs[j] backs lba0+j, one contiguous physical run in the head segment)
// and hands the new pages and the displaced translations to the policy.
func (l *Log) commitRun(m mapcache.Map, epoch, lba0 uint64, addrs []nand.PageAddr) sim.Duration {
	if len(addrs) == 0 {
		return 0
	}
	l.ws.prevs = l.ws.prevs[:0]
	entries := l.ws.entries[:0]
	for j, a := range addrs {
		entries = append(entries, ftlmap.Entry{Key: lba0 + uint64(j), Val: uint64(a)})
	}
	l.ws.entries = entries
	m.InsertRun(entries, l.ws.keepPrev)
	return l.policy.RunCommitted(epoch, addrs, l.ws.prevs)
}

// TrimActive drops the run's translations from the device's own map and has
// the policy invalidate the backing pages in epoch (under ioSnap they stay
// live in any snapshot that captured them). Like the other run operations it
// charges one mapCPUCost per touched leaf.
func (l *Log) TrimActive(now sim.Time, epoch uint64, lba int64, n int64) (sim.Time, error) {
	// A closed device refuses trims with ErrClosed even if it was frozen
	// when it closed — closed beats frozen, matching Read and Write.
	if err := l.CheckIO(lba, int(n)); err != nil {
		return now, err
	}
	if l.frozen {
		return now, ErrFrozen
	}
	span := ftlmap.RunSpan(int(n))
	l.stats.BatchDescents += int64(span)
	// Paged map: fault only the translation pages that exist inside the
	// trimmed range (a discard over a hole touches nothing).
	t, err := l.mapEnsureRange(now, l.ActiveMap, uint64(lba), uint64(lba)+uint64(n))
	if err != nil {
		return t, err
	}
	l.ws.prevs = l.ws.prevs[:0]
	l.ActiveMap.DeleteRange(uint64(lba), uint64(lba)+uint64(n), l.ws.keepDel)
	l.policy.RunCommitted(epoch, nil, l.ws.prevs)
	l.stats.Trims += n
	return t.Add(sim.Duration(span) * mapCPUCost), nil
}

// SortPages orders a list of physical pages a policy is about to invalidate
// for NextRun. Sequential overwrites displace already-ascending runs, so the
// sort is usually skipped.
func SortPages(pages []uint64) {
	if !slices.IsSorted(pages) {
		slices.Sort(pages)
	}
}

// NextRun splits the first run off pages (ascending, non-empty): the longest
// prefix of consecutive pages inside one segment, so each validity kernel
// call and counter update stays within one segment. It returns the run
// [lo, hi) and the pages after it.
func (l *Log) NextRun(pages []uint64) (lo, hi int64, rest []uint64) {
	pps := int64(l.cfg.Nand.PagesPerSegment)
	lo = int64(pages[0])
	hi = lo + 1
	n := 1
	for segEnd := (lo/pps + 1) * pps; n < len(pages) && int64(pages[n]) == hi && hi < segEnd; n++ {
		hi++
	}
	return lo, hi, pages[n:]
}

// lookupScratch returns the reusable LookupRange buffers, grown to n and
// with found all-false (ReadRun resets the bits it sets).
func (l *Log) lookupScratch(n int) ([]uint64, []bool) {
	if cap(l.ws.vals) < n {
		l.ws.vals = make([]uint64, n)
		l.ws.found = make([]bool, n)
	}
	return l.ws.vals[:n], l.ws.found[:n]
}
