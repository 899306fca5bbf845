package nand

import (
	"fmt"

	"iosnap/internal/sim"
)

// CopyPage moves a programmed page's contents to an erased page (the
// cleaner's copy-forward), preserving payload — or its fingerprint in
// fingerprint mode — and OOB header bytes. Timing models a read on the
// source page's channel followed by a program on the destination's, with
// both transfers crossing the shared buses, so copy-forward contends with
// foreground I/O exactly like host-issued operations.
//
// The source's payload is copied into the destination's window of its
// segment's store, rewritten in place as a program does (a loaded
// segment's store is its region of the image); windows never overlap, so a
// slice ReadPage returned for any other page is unaffected.
func (d *Device) CopyPage(now sim.Time, from, to PageAddr) (sim.Time, error) {
	srcSeg, src, err := d.check(from)
	if err != nil {
		return now, err
	}
	if src.state != pageProgrammed {
		return now, fmt.Errorf("%w: copy source %d", ErrReadErased, from)
	}
	dstSeg, dst, err := d.checkProg(to)
	if err != nil {
		return now, err
	}
	if dstSeg.health == Retired {
		return now, fmt.Errorf("%w: copy into segment %d", ErrRetired, d.SegmentOf(to))
	}
	if dst.state != pageErased {
		return now, fmt.Errorf("%w: copy destination %d", ErrNotErased, to)
	}
	toIdx := d.PageIndexOf(to)
	if toIdx != dstSeg.nextProg {
		return now, fmt.Errorf("%w: segment %d page %d (next free %d)",
			ErrOutOfOrder, d.SegmentOf(to), toIdx, dstSeg.nextProg)
	}
	if d.hook != nil {
		// OpCopy lets fault plans target cleaner traffic specifically; the
		// read/program consults model the underlying physical operations.
		if err := d.hook.BeforeOp(OpCopy, from); err != nil {
			return now, err
		}
		if err := d.hook.BeforeOp(OpRead, from); err != nil {
			return now, err
		}
		if err := d.hook.BeforeOp(OpProgram, to); err != nil {
			return now, err
		}
	}

	dst.state = pageProgrammed
	dst.oob = src.oob
	dst.fp = src.fp
	copy(d.slot(dstSeg, toIdx), d.payload(srcSeg, d.PageIndexOf(from)))
	dstSeg.nextProg = toIdx + 1

	d.stats.PageReads++
	d.stats.PagePrograms++
	d.stats.BytesRead += int64(d.cfg.SectorSize)
	d.stats.BytesWritten += int64(d.cfg.SectorSize)

	_, cellDone := d.channelFor(from).Acquire(now, d.cfg.ReadLatency)
	busDone := d.readBus.acquire(cellDone, d.cfg.SectorSize)
	busDone = d.writeBus.acquire(busDone, d.cfg.SectorSize)
	_, done := d.channelFor(to).Acquire(busDone, d.cfg.ProgramLatency)
	return done, nil
}

// PageOOB returns the OOB bytes of a programmed page without modelling
// device time; the cleaner uses it to interpret a page it is about to move
// (the timed read happens in CopyPage).
func (d *Device) PageOOB(addr PageAddr) ([]byte, error) {
	_, p, err := d.check(addr)
	if err != nil {
		return nil, err
	}
	if p.state != pageProgrammed {
		return nil, fmt.Errorf("%w: page %d", ErrReadErased, addr)
	}
	return p.oob[:], nil
}

// PageData returns the stored payload of a programmed page without
// modelling device time. It requires StoreData mode. The paged mapping
// table uses it to interpret translation pages in host-side contexts (GC
// fix-up, invariant walks, tail replay) where the timed read either
// happened elsewhere or is deliberately not part of the foreground charge.
// The returned slice aliases device memory and must not be modified; like
// ReadPage's, it is valid only while the device is reachable.
func (d *Device) PageData(addr PageAddr) ([]byte, error) {
	if !d.cfg.StoreData {
		return nil, fmt.Errorf("nand: PageData on a fingerprint-mode device")
	}
	s, p, err := d.check(addr)
	if err != nil {
		return nil, err
	}
	if p.state != pageProgrammed {
		return nil, fmt.Errorf("%w: page %d", ErrReadErased, addr)
	}
	return d.payload(s, d.PageIndexOf(addr)), nil
}
