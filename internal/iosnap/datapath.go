package iosnap

// The ioSnap foreground data path, rebuilt around batches — the snapshot
// twin of internal/ftl/datapath.go. A multi-sector request is one *run*:
// the view's forward map is charged one MapCPUCost per leaf the run touches
// spans in a maximally-packed tree (ftlmap.RunSpan), translations move through InsertRun / LookupRange /
// DeleteRange, validity flips through the CoW store's word-level range
// kernels (one CoW page copy per touched bitmap page, exactly what per-bit
// flips would have copied), and the NAND sees one batch call per log-head
// chunk. The path stays snapshot-oblivious: no per-snapshot work appears
// anywhere; only CoW page copies — charged once, in aggregate, at the end
// of the run — betray a snapshot's existence (Figure 7's spikes).
//
// Config.ReferenceDataPath selects the historical per-sector algorithms on
// the same virtual-time skeleton (same charges, same chunk boundaries, same
// submit times, same Stats increments), so batched and reference runs of
// any fault-free workload produce bit-identical device state, Stats, and
// completion times. Partial failure is accounted honestly in both: the
// sectors that completed stay committed and counted, and the returned time
// reflects work actually consumed.

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// dataPathScratch holds the per-FTL reusable buffers of the batched data
// path; the simulation is single-threaded, so one set suffices.
type dataPathScratch struct {
	addrs   []nand.PageAddr
	datas   [][]byte
	oobs    [][]byte
	oobBuf  []byte   // flat backing store for oobs: header.Len bytes per page
	rdatas  [][]byte // devReadPages results, valid until its next call
	roobs   [][]byte
	entries []ftlmap.Entry
	prevs   []uint64
	vals    []uint64
	found   []bool
	secIdx  []int

	mapMiss  []uint64        // translation-page fault lists (mappage.go)
	mapAddrs []nand.PageAddr // their flash addresses for the batch read
}

// readVia serves a run read against any view. It returns the number of
// sectors completed (all of them unless the device failed mid-run), the
// completion time of the work performed, and the first error.
func (f *FTL) readVia(v *view, now sim.Time, lba int64, buf []byte) (completed int, done sim.Time, err error) {
	ss := f.cfg.Nand.SectorSize
	if len(buf)%ss != 0 {
		return 0, now, fmt.Errorf("%w: %d", ErrBadLength, len(buf))
	}
	n := len(buf) / ss
	if err := f.checkIO(lba, n); err != nil {
		return 0, now, err
	}
	span := ftlmap.RunSpan(n)
	f.stats.BatchDescents += int64(span)
	t := now.Add(sim.Duration(span) * f.cfg.MapCPUCost)
	// Paged map: fault the run's translation pages in (charged) before the
	// map is consulted. Tree and unbounded-paged maps pass through untimed.
	if t, err = f.mapEnsure(t, v, uint64(lba), n); err != nil {
		return 0, t, err
	}
	done = t

	// Resolve the run's translations; unmapped sectors read as zeros.
	addrs := f.ws.addrs[:0]
	secIdx := f.ws.secIdx[:0]
	if f.cfg.ReferenceDataPath {
		for i := 0; i < n; i++ {
			if a, ok := v.fmap.Lookup(uint64(lba) + uint64(i)); ok {
				addrs = append(addrs, nand.PageAddr(a))
				secIdx = append(secIdx, i)
			} else {
				clear(buf[i*ss : (i+1)*ss])
			}
		}
	} else {
		vals, found := f.lookupScratch(n)
		v.fmap.LookupRange(uint64(lba), vals, found)
		for i := 0; i < n; i++ {
			if found[i] {
				addrs = append(addrs, nand.PageAddr(vals[i]))
				secIdx = append(secIdx, i)
				found[i] = false // leave the scratch all-false for reuse
			} else {
				clear(buf[i*ss : (i+1)*ss])
			}
		}
	}
	f.ws.addrs, f.ws.secIdx = addrs, secIdx
	if len(addrs) == 0 {
		return n, done, nil
	}
	f.stats.BatchPages += int64(len(addrs))
	f.stats.BatchNandCalls++

	if f.cfg.ReferenceDataPath {
		for j, a := range addrs {
			data, _, d, err := f.devReadPage(t, a)
			if err != nil {
				return secIdx[j], done, fmt.Errorf("iosnap: reading LBA %d: %w", lba+int64(secIdx[j]), err)
			}
			copy(buf[secIdx[j]*ss:(secIdx[j]+1)*ss], data) // nil data (fingerprint mode) leaves buf as-is
			if d > done {
				done = d
			}
		}
		return n, done, nil
	}
	datas, _, k, d, err := f.devReadPages(t, addrs)
	for j := 0; j < k; j++ {
		copy(buf[secIdx[j]*ss:(secIdx[j]+1)*ss], datas[j])
	}
	if d > done {
		done = d
	}
	if err != nil {
		return secIdx[k], done, fmt.Errorf("iosnap: reading LBA %d: %w", lba+int64(secIdx[k]), err)
	}
	return n, done, nil
}

// writeVia appends a run to the log on behalf of a writable view: the run
// lands in per-segment chunks at the head, the view's map absorbs it with
// one descent per touched leaf, and the view epoch's validity flips in
// ranges. CoW page copies are charged in aggregate at the end of the run.
func (f *FTL) writeVia(v *view, now sim.Time, lba int64, data []byte) (completed int, done sim.Time, err error) {
	if f.frozen {
		return 0, now, ErrFrozen
	}
	ss := f.cfg.Nand.SectorSize
	if len(data)%ss != 0 {
		return 0, now, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	n := len(data) / ss
	if err := f.checkIO(lba, n); err != nil {
		return 0, now, err
	}
	span := ftlmap.RunSpan(n)
	f.stats.BatchDescents += int64(span)
	at := now.Add(sim.Duration(span) * f.cfg.MapCPUCost)
	if at, err = f.mapEnsure(at, v, uint64(lba), n); err != nil {
		return 0, at, err
	}
	done = at
	written := 0
	totalCows := 0
	var firstErr error
	for written < n && firstErr == nil {
		// The first page of each chunk goes through allocPage so head
		// advancement (forced cleaning, degradation, background-task
		// scheduling) behaves exactly as before; the rest of the chunk
		// fills the head segment contiguously.
		addr0, at2, err := f.allocPage(at)
		if err != nil {
			firstErr = err
			break
		}
		at = at2
		if at > done {
			done = at
		}
		chunk := n - written
		if room := f.cfg.Nand.PagesPerSegment - f.headIdx + 1; chunk > room {
			chunk = room
		}
		addrs := append(f.ws.addrs[:0], addr0)
		for j := 1; j < chunk; j++ {
			addrs = append(addrs, f.dev.Addr(f.headSeg, f.headIdx))
			f.headIdx++
		}
		seqBase := f.seq
		datas, oobs := f.ws.datas[:0], f.ws.oobs[:0]
		if f.cfg.ReferenceDataPath {
			// Historical host-cost profile: one fresh header buffer per page.
			for j := 0; j < chunk; j++ {
				datas = append(datas, data[(written+j)*ss:(written+j+1)*ss])
				h := header.Header{Type: header.TypeData, LBA: uint64(lba) + uint64(written+j), Epoch: uint64(v.epoch), Seq: seqBase + uint64(j) + 1}
				oobs = append(oobs, h.Marshal())
			}
		} else {
			if need := chunk * header.Len; cap(f.ws.oobBuf) < need {
				f.ws.oobBuf = make([]byte, need)
			}
			for j := 0; j < chunk; j++ {
				datas = append(datas, data[(written+j)*ss:(written+j+1)*ss])
				h := header.Header{Type: header.TypeData, LBA: uint64(lba) + uint64(written+j), Epoch: uint64(v.epoch), Seq: seqBase + uint64(j) + 1}
				oob := f.ws.oobBuf[j*header.Len : (j+1)*header.Len]
				h.MarshalInto(oob)
				oobs = append(oobs, oob)
			}
		}
		f.seq += uint64(chunk)
		f.ws.addrs, f.ws.datas, f.ws.oobs = addrs, datas, oobs
		f.stats.BatchPages += int64(chunk)
		f.stats.BatchNandCalls++

		var k int
		var d sim.Time
		if f.cfg.ReferenceDataPath {
			d = at
			for k = 0; k < chunk; k++ {
				pd, e := f.devProgramPage(at, addrs[k], datas[k], oobs[k])
				if pd > d {
					d = pd
				}
				if e != nil {
					err = e
					break
				}
			}
		} else {
			k, d, err = f.devProgramPages(at, addrs, datas, oobs)
		}
		if d > done {
			done = d
		}
		if k > 0 {
			seg := f.dev.SegmentOf(addrs[0])
			f.segLastSeq[seg] = seqBase + uint64(k)
			f.presence.add(seg, v.epoch)
		}
		if err != nil {
			// Pages past the failing one were never attempted: they hand
			// back their sequence numbers and log-head slots. The failing
			// page keeps its consumed seq (as the per-sector path always
			// did) and is reclaimed by ungetPage unless it landed after all.
			f.seq -= uint64(chunk - k - 1)
			f.headIdx -= chunk - k - 1
			f.ungetPage(addrs[k])
			if retry.MediaFailure(err) {
				f.sealHead()
			}
			firstErr = fmt.Errorf("iosnap: programming LBA %d: %w", lba+int64(written+k), err)
		}
		totalCows += f.commitWriteRun(v, uint64(lba)+uint64(written), addrs[:k])
		written += k
	}
	if totalCows > 0 {
		done = done.Add(sim.Duration(totalCows) * f.cfg.CoWPageCost)
	}
	return written, done, firstErr
}

// commitWriteRun installs view translations for a run of freshly-programmed
// pages (addrs[j] backs lba0+j) and flips the view epoch's validity: the
// new pages set as one contiguous range, the displaced translations clear
// in coalesced runs. It returns the number of CoW bitmap-page copies the
// flips triggered — identical to what per-bit flips would have copied,
// since each inherited page is copied exactly once per epoch regardless of
// how many bits in it flip.
func (f *FTL) commitWriteRun(v *view, lba0 uint64, addrs []nand.PageAddr) int {
	if len(addrs) == 0 {
		return 0
	}
	cows := 0
	if f.cfg.ReferenceDataPath {
		for j, a := range addrs {
			if prev, existed := v.fmap.Insert(lba0+uint64(j), uint64(a)); existed {
				if f.vstore.Clear(v.epoch, int64(prev)) {
					cows++
				}
				f.acct.onViewClear(v.epoch, int64(prev))
			}
			if f.vstore.Set(v.epoch, int64(a)) {
				cows++
			}
			f.acct.onViewSet(int64(a))
		}
		return cows
	}
	entries := f.ws.entries[:0]
	for j, a := range addrs {
		entries = append(entries, ftlmap.Entry{Key: lba0 + uint64(j), Val: uint64(a)})
	}
	f.ws.entries = entries
	f.ws.prevs = f.ws.prevs[:0]
	v.fmap.InsertRun(entries, func(_ int, prev uint64) {
		f.ws.prevs = append(f.ws.prevs, prev)
	})
	lo, hi := int64(addrs[0]), int64(addrs[0])+int64(len(addrs))
	cows += f.vstore.SetRange(v.epoch, lo, hi)
	f.acct.onViewSetRun(lo, hi)
	cows += f.clearViewRuns(v.epoch, f.ws.prevs)
	return cows
}

// clearViewRuns clears the given physical pages in epoch e, coalescing
// sorted neighbours into ClearRange calls (split at segment boundaries so
// the accounting hook stays within one merge cache). Returns CoW copies.
func (f *FTL) clearViewRuns(e bitmap.Epoch, prevs []uint64) int {
	if len(prevs) == 0 {
		return 0
	}
	sorted := true
	for i := 1; i < len(prevs); i++ {
		if prevs[i] < prevs[i-1] {
			sorted = false
			break
		}
	}
	if !sorted { // sequential overwrites displace already-ascending runs
		sort.Slice(prevs, func(i, j int) bool { return prevs[i] < prevs[j] })
	}
	pps := int64(f.cfg.Nand.PagesPerSegment)
	cows := 0
	for i := 0; i < len(prevs); {
		lo := int64(prevs[i])
		hi := lo + 1
		segEnd := (lo/pps + 1) * pps
		j := i + 1
		for j < len(prevs) && int64(prevs[j]) == hi && hi < segEnd {
			hi++
			j++
		}
		cows += f.vstore.ClearRange(e, lo, hi)
		f.acct.onViewClearRun(e, lo, hi)
		i = j
	}
	return cows
}

// Trim drops active-view translations for the run. The pages remain live in
// any snapshot that captured them; only the active epoch's bits clear. Like
// the other run operations it charges one MapCPUCost per touched leaf.
func (f *FTL) Trim(now sim.Time, lba int64, n int64) (sim.Time, error) {
	// A closed device refuses trims with ErrClosed even if it was frozen
	// when it closed — closed beats frozen, matching Read and Write.
	if err := f.checkIO(lba, int(n)); err != nil {
		return now, err
	}
	if f.frozen {
		return now, ErrFrozen
	}
	span := ftlmap.RunSpan(int(n))
	f.stats.BatchDescents += int64(span)
	// Paged map: fault only the translation pages that exist inside the
	// trimmed range (a discard over a hole touches nothing).
	t, err := f.mapEnsureRange(now, f.active, uint64(lba), uint64(lba)+uint64(n))
	if err != nil {
		return t, err
	}
	if f.cfg.ReferenceDataPath {
		for i := int64(0); i < n; i++ {
			if prev, existed := f.active.fmap.Delete(uint64(lba + i)); existed {
				f.vstore.Clear(f.active.epoch, int64(prev))
				f.acct.onViewClear(f.active.epoch, int64(prev))
			}
		}
	} else {
		f.ws.prevs = f.ws.prevs[:0]
		f.active.fmap.DeleteRange(uint64(lba), uint64(lba)+uint64(n), func(_, prev uint64) {
			f.ws.prevs = append(f.ws.prevs, prev)
		})
		f.clearViewRuns(f.active.epoch, f.ws.prevs)
	}
	f.stats.Trims += n
	return t.Add(sim.Duration(span) * f.cfg.MapCPUCost), nil
}

// lookupScratch returns the reusable LookupRange buffers, grown to n and
// with found all-false (readVia resets the bits it sets).
func (f *FTL) lookupScratch(n int) ([]uint64, []bool) {
	if cap(f.ws.vals) < n {
		f.ws.vals = make([]uint64, n)
		f.ws.found = make([]bool, n)
	}
	return f.ws.vals[:n], f.ws.found[:n]
}
