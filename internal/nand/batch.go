package nand

import (
	"encoding/binary"
	"fmt"

	"iosnap/internal/sim"
)

// Batch entry points. A multi-page request from the FTL's batched data path
// arrives here as one call: every page is submitted at the same virtual
// time, channel acquisitions overlap across the stripe exactly as if the
// host had issued the pages back to back, and the shared bus is claimed
// once per batch — programs reserve one contiguous transfer window up
// front (host-to-device transfers precede cell programming, so the window
// is known when the batch is submitted), while reads append each page's
// transfer to the bus in a single monotone pass (device-to-host transfers
// trail the cell reads). Errors keep per-page attribution: a batch stops at
// the first failing page and reports how many pages landed, so the retry /
// media-failure machinery can charge the right segment and resume with the
// remainder.

// pageCost is the bus transfer time for one page's payload, with the same
// ≥1ns clamp acquire applies. 0 means the bus is disabled.
func (b *busModel) pageCost(bytes int) sim.Duration {
	if b.nsPerByte == 0 {
		return 0
	}
	cost := sim.Duration(float64(bytes) * b.nsPerByte)
	if cost < 1 {
		cost = 1
	}
	return cost
}

// reserve claims one contiguous window of the given length on the bus and
// returns its start time. Because every page in a batch carries the same
// per-page clamped cost, a window of n·pageCost with hand-offs at the
// partial sums is *exactly* the schedule n back-to-back per-page acquires
// would produce — batch and sequential submission agree to the nanosecond.
func (b *busModel) reserve(now sim.Time, window sim.Duration) sim.Time {
	if b.nsPerByte == 0 {
		return now
	}
	start, _ := b.res.Acquire(now, window)
	return start
}

// ProgramPages programs len(addrs) erased pages in one batch submitted at
// now: datas[i], a sector long, is copied into addrs[i]'s payload window
// and oobs[i], at most OOBSize bytes, is its header. The write bus is
// reserved once for the batch's total bytes; page i's cell program starts
// at its transfer hand-off point inside that window, on its own channel,
// so a striped batch overlaps programming across channels. Pages commit in
// order (fault hooks are consulted per page, in order, preserving
// crash-at-operation-N semantics); on the first failure the batch stops
// and returns how many pages landed, the completion time of the landed
// pages, and the failing page's error. The bus window for the full batch
// stays claimed on failure — the transfer was already scheduled.
func (d *Device) ProgramPages(now sim.Time, addrs []PageAddr, datas, oobs [][]byte) (n int, done sim.Time, err error) {
	if len(datas) != len(addrs) || len(oobs) != len(addrs) {
		panic(fmt.Sprintf("nand: ProgramPages %d addrs, %d datas, %d oobs", len(addrs), len(datas), len(oobs)))
	}
	done = now
	pageCost := d.writeBus.pageCost(d.cfg.SectorSize)
	var busStart sim.Time
	busReserved := false
	transferred := 0
	// Stats commit once per batch (early returns included): pages that passed
	// validation count exactly as the per-page loop would have counted them.
	programmed := 0
	defer func() {
		d.stats.PagePrograms += int64(programmed)
		d.stats.BytesWritten += int64(programmed) * int64(d.cfg.SectorSize)
	}()
	// Address decomposition runs incrementally: data-path batches are
	// contiguous within a segment, so consecutive addresses advance the page
	// index and channel without re-dividing. Any discontiguity falls back to
	// the full decomposition (with its bounds check).
	pps := d.cfg.PagesPerSegment
	nch := d.cfg.Channels
	segIdx, pageIdx, ch := -1, 0, 0
	var seg *segment
	for i, addr := range addrs {
		if d.hook != nil {
			if err := d.hook.BeforeOp(OpProgram, addr); err != nil {
				return i, done, err
			}
		}
		if segIdx >= 0 && addr == addrs[i-1]+1 && pageIdx+1 < pps {
			pageIdx++
			if ch++; ch == nch {
				ch = 0
			}
		} else {
			if int64(addr) >= d.cfg.TotalPages() {
				return i, done, fmt.Errorf("%w: %d", ErrBadAddress, addr)
			}
			segIdx = d.SegmentOf(addr)
			pageIdx = d.PageIndexOf(addr)
			ch = int(addr) % nch
			seg = &d.segs[segIdx]
			d.materialize(seg)
		}
		p := &seg.pages[pageIdx]
		if seg.health == Retired {
			return i, done, fmt.Errorf("%w: program of segment %d", ErrRetired, segIdx)
		}
		data, oob := datas[i], oobs[i]
		if len(data) != d.cfg.SectorSize {
			return i, done, fmt.Errorf("%w: got %d, want %d", ErrBadSize, len(data), d.cfg.SectorSize)
		}
		if len(oob) > OOBSize {
			return i, done, fmt.Errorf("nand: oob %d bytes exceeds %d", len(oob), OOBSize)
		}
		if p.state != pageErased {
			return i, done, fmt.Errorf("%w: page %d", ErrNotErased, addr)
		}
		if pageIdx != seg.nextProg {
			return i, done, fmt.Errorf("%w: segment %d page %d (next free %d)",
				ErrOutOfOrder, segIdx, pageIdx, seg.nextProg)
		}
		stored := data
		if d.hook != nil {
			// Torn/corrupted header injection: the payload lands but its
			// header bytes may be garbage, as when power fails mid-program.
			if m := d.hook.MutateOOB(addr, oob); len(m) <= OOBSize {
				oob = m
			}
			// Payload corruption on program: the cells store the corrupted
			// bytes while the fingerprint below is computed from the intended
			// ones (bits flipped after ECC), so reads detect the damage.
			stored = d.corruptData(OpProgram, addr, data)
		}

		p.state = pageProgrammed
		copy(p.oob[:], oob)
		for j := len(oob); j < OOBSize; j++ {
			p.oob[j] = 0
		}
		binary.LittleEndian.PutUint64(p.fp[:], Fingerprint(data))
		copy(d.slot(seg, pageIdx), stored)
		seg.nextProg = pageIdx + 1
		programmed++

		// One bus window for the whole batch, claimed at the first page that
		// passes validation; page i's program starts once its share of the
		// transfer completes.
		handoff := now
		if !busReserved {
			busStart = d.writeBus.reserve(now, sim.Duration(len(addrs))*pageCost)
			busReserved = true // bus disabled: hand-offs stay at now
		}
		transferred++
		if pageCost != 0 {
			handoff = busStart.Add(sim.Duration(transferred) * pageCost)
		}
		_, chDone := d.channels[ch].Acquire(handoff, d.cfg.ProgramLatency)
		if chDone > done {
			done = chDone
		}
	}
	return len(addrs), done, nil
}

// ReadPagesInto reads len(addrs) programmed pages in one batch submitted at
// now, appending each page's payload and OOB to *datas and *oobs —
// caller-owned result scratch, so the data path's one call per chunk
// allocates nothing. Cell reads overlap across channels; each page's
// transfer then claims the read bus in submission order (one monotone pass
// — the batch's bus charge). The appended slices alias device memory and
// must not be modified: a payload is the page's window of its segment's
// store (nil in fingerprint mode), which for a loaded device may be a
// window into its mapped image, valid only while the device is reachable.
// On the first failing page the batch stops, returning how many pages were
// read, their completion time, and the failing page's error.
func (d *Device) ReadPagesInto(now sim.Time, addrs []PageAddr, datas, oobs *[][]byte) (n int, done sim.Time, err error) {
	done = now
	for i, addr := range addrs {
		if d.hook != nil {
			if err := d.hook.BeforeOp(OpRead, addr); err != nil {
				return i, done, err
			}
		}
		seg, p, err := d.check(addr)
		if err != nil {
			return i, done, err
		}
		if p.state != pageProgrammed {
			return i, done, fmt.Errorf("%w: page %d", ErrReadErased, addr)
		}
		d.stats.PageReads++
		d.stats.BytesRead += int64(d.cfg.SectorSize)

		_, cellDone := d.channelFor(addr).Acquire(now, d.cfg.ReadLatency)
		pageDone := d.readBus.acquire(cellDone, d.cfg.SectorSize)
		if pageDone > done {
			done = pageDone
		}
		data := d.payload(seg, d.PageIndexOf(addr))
		if d.hook != nil {
			data = d.corruptData(OpRead, addr, data)
			if err := d.verifyPayload(addr, p, data); err != nil {
				// Cell and bus time for the rejected page were already
				// charged above; the batch stops at the corrupt page.
				return i, done, err
			}
		}
		*datas = append(*datas, data)
		*oobs = append(*oobs, p.oob[:])
	}
	return len(addrs), done, nil
}

// CopyPages performs a batch of copy-forwards, all submitted at now —
// exactly the schedule the cleaner's quantum pipeline issues, one call
// instead of len(froms). It stops at the first failing pair, returning how
// many pairs completed, their completion time, and the failing pair's
// error (per-pair attribution for the rescue/retirement machinery).
func (d *Device) CopyPages(now sim.Time, froms, tos []PageAddr) (n int, done sim.Time, err error) {
	if len(froms) != len(tos) {
		panic(fmt.Sprintf("nand: CopyPages %d sources, %d destinations", len(froms), len(tos)))
	}
	done = now
	for i := range froms {
		pairDone, err := d.CopyPage(now, froms[i], tos[i])
		if pairDone > done {
			done = pairDone
		}
		if err != nil {
			return i, done, err
		}
	}
	return len(froms), done, nil
}
