package logcore

import (
	"errors"
	"fmt"
	"slices"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// The log head and the segment pools.

// AppendRun programs a run of up to pages pages at the log head: page(j)
// supplies page j's header and sector, and AppendRun stamps the header with
// the next Seq number. Every page the log programs outside the cleaner
// enters this way — data chunks, ioSnap's snapshot notes, checkpoint chunks
// and translation pages. The first page is allocated keeping reserve
// segments free (allocPage), so head advancement behaves exactly as for a
// single page; the rest fill the head segment behind it, and a run that does
// not fit is cut at the segment's end. page is called after the allocation,
// so what it encodes reflects any clean the allocation forced.
//
// AppendRun returns the pages the run took, how many of them landed, the
// time the allocation returned and the completion time of the landed pages.
// A failed allocation takes no page and returns its error. When page k
// fails, the pages after it were never attempted and hand back their slots
// and Seq numbers; page k keeps its number and hands back its slot unless it
// landed after all; a media failure seals the head.
func (l *Log) AppendRun(now sim.Time, reserve, pages int, page func(j int) (header.Header, []byte)) (addrs []nand.PageAddr, k int, at, done sim.Time, err error) {
	addr0, at, err := l.allocPage(now, reserve)
	if err != nil {
		return nil, 0, at, at, err
	}
	pages = min(pages, l.cfg.Nand.PagesPerSegment-l.HeadIdx+1)
	addrs = append(l.ws.addrs[:0], addr0)
	for len(addrs) < pages {
		addrs = append(addrs, l.Dev.Addr(l.HeadSeg, l.HeadIdx))
		l.HeadIdx++
	}
	if need := pages * header.Len; cap(l.ws.oobBuf) < need {
		l.ws.oobBuf = make([]byte, need)
	}
	seq := l.Seq
	datas, oobs := l.ws.datas[:0], l.ws.oobs[:0]
	for j := range pages {
		h, data := page(j)
		h.Seq = seq + uint64(j) + 1
		oob := l.ws.oobBuf[j*header.Len : (j+1)*header.Len]
		h.MarshalInto(oob)
		datas = append(datas, data)
		oobs = append(oobs, oob)
	}
	l.Seq += uint64(pages)
	l.ws.addrs, l.ws.datas, l.ws.oobs = addrs, datas, oobs
	k, done, err = l.batched(at, addrs, func(t sim.Time, lo, hi int) (int, sim.Time, error) {
		return l.Dev.ProgramPages(t, addrs[lo:hi], datas[lo:hi], oobs[lo:hi])
	})
	if k > 0 {
		l.SegLastSeq[l.Dev.SegmentOf(addr0)] = seq + uint64(k)
	}
	if err != nil {
		l.Seq -= uint64(l.handBack(addrs, k))
		if retry.MediaFailure(err) {
			l.sealHead() // move future appends off the failing segment
		}
	}
	return addrs, k, at, done, err
}

// allocPage returns the next log-head page while keeping at least reserve
// segments free, forcing synchronous cleaning when the pool is at that
// floor. Ordinary appends keep Config.DataReserve; space-freeing ones
// (ioSnap's snapshot delete and deactivate notes) pass a lower reserve so
// they still work while the device is degraded. When cleaning cannot lift
// the pool the device degrades and the append sheds with ErrOutOfSpace. The
// returned time reflects any cleaning the caller had to wait for.
func (l *Log) allocPage(now sim.Time, reserve int) (nand.PageAddr, sim.Time, error) {
	if l.HeadIdx == l.cfg.Nand.PagesPerSegment {
		// Forced cleaning: the pool is down to the reserve and the writer
		// must wait. If cleaning cannot lift it back out, the write is shed
		// instead of bricking the device — reads, trims, and cleaning
		// continue, and the next write re-evaluates the pool from scratch.
		for len(l.FreeSegs) <= reserve {
			var err error
			now, err = l.forcedClean(now)
			if err != nil {
				if errors.Is(err, ErrDeviceFull) {
					l.degraded = true
					l.stats.OutOfSpaceWrites++
					return 0, now, l.outOfSpace(reserve)
				}
				return 0, now, err
			}
		}
		l.degraded = false
		// The clean's copies may have opened a segment with room left: the
		// head moves on only if it is still full.
		if l.HeadIdx == l.cfg.Nand.PagesPerSegment {
			l.nextHead()
		}
		l.MaybeClean(now)
		l.policy.HeadAdvanced(now)
		l.maybeScheduleCheckpoint(now)
	}
	addr := l.Dev.Addr(l.HeadSeg, l.HeadIdx)
	l.HeadIdx++
	return addr, now, nil
}

// outOfSpace is ErrOutOfSpace with what explains it: the free pool against
// the reserve the append keeps, the best victim (BestVictim, which skips the
// head and the in-flight clean's victim) and the in-flight clean's victim.
func (l *Log) outOfSpace(reserve int) error {
	return fmt.Errorf("%w: %d free segments, reserve %d; best victim %s; in-flight clean %s",
		ErrOutOfSpace, len(l.FreeSegs), reserve, l.describeSeg(l.BestVictim()), l.describeSeg(l.GCVictim))
}

// describeSeg names seg and what it holds, or "none" for -1.
func (l *Log) describeSeg(seg int) string {
	if seg < 0 {
		return "none"
	}
	return fmt.Sprintf("segment %d (%d valid and %d pinned of %d pages)",
		seg, l.victims.valid[seg], l.victims.pinned[seg], l.cfg.Nand.PagesPerSegment)
}

// allocPageGC is the cleaner's allocation: it never forces a nested clean.
// If the pool is exhausted the device is genuinely out of reclaimable space.
func (l *Log) allocPageGC() (nand.PageAddr, error) {
	if l.HeadIdx == l.cfg.Nand.PagesPerSegment {
		if len(l.FreeSegs) == 0 {
			return 0, ErrDeviceFull
		}
		l.nextHead()
	}
	addr := l.Dev.Addr(l.HeadSeg, l.HeadIdx)
	l.HeadIdx++
	return addr, nil
}

// nextHead moves the head onto the oldest free segment.
func (l *Log) nextHead() {
	l.HeadSeg = l.FreeSegs[0]
	l.FreeSegs = l.FreeSegs[1:]
	l.HeadIdx = 0
	l.UsedSegs = append(l.UsedSegs, l.HeadSeg)
	l.track(l.HeadSeg, true)
}

// ungetPage rolls back the most recent allocation after a failed program.
// Without it the unprogrammed page becomes a permanent hole at the log head:
// pages program in order, so the device rejects every later program in the
// segment with ErrOutOfOrder, turning one transient fault into a bricked log.
// Only the exact page just handed out is reclaimed, and only if the program
// really did not land.
func (l *Log) ungetPage(addr nand.PageAddr) {
	if l.HeadIdx == 0 || addr != l.Dev.Addr(l.HeadSeg, l.HeadIdx-1) {
		return
	}
	if _, err := l.Dev.PageOOB(addr); err == nil {
		return // the program landed after all (e.g. a post-program fault)
	}
	l.HeadIdx--
}

// handBack rolls the head back over a run whose page n failed: the pages
// after it were never attempted and return their slots, and page n returns
// its own unless it landed after all. It returns how many pages were never
// attempted.
func (l *Log) handBack(addrs []nand.PageAddr, n int) int {
	skipped := len(addrs) - n - 1
	l.HeadIdx -= skipped
	l.ungetPage(addrs[n])
	return skipped
}

// sealHead abandons the rest of a suspect head segment so subsequent appends
// land on healthy media; the suspect segment's existing data is rescued when
// the cleaner (or ioSnap's scrubber) picks it. With no spare free segment the
// head stays put: the next write retries in place rather than starving the
// cleaner.
func (l *Log) sealHead() {
	if l.Dev.SegmentHealth(l.HeadSeg) == nand.Healthy || len(l.FreeSegs) <= 1 {
		return
	}
	l.nextHead()
}

// without returns segs with seg removed, order kept.
func without(segs []int, seg int) []int {
	if i := slices.Index(segs, seg); i >= 0 {
		return slices.Delete(segs, i, i+1)
	}
	return segs
}

// retireSegment removes a fully-rescued segment from service: the device
// refuses further programs and erases, and the segment leaves both pools for
// good. Callers must have moved every block the policy still needs off it.
func (l *Log) retireSegment(seg int) {
	l.Dev.Retire(seg)
	l.UsedSegs = without(l.UsedSegs, seg)
	l.FreeSegs = without(l.FreeSegs, seg)
	l.untrack(seg)
}
