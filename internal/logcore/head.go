package logcore

import (
	"errors"
	"slices"

	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// The log head and the segment pools.

// AllocPage returns the next log-head page, forcing synchronous cleaning
// when the pool is nearly empty. Ordinary allocation honours the rescue
// reserve; when the pool cannot be kept above it the device degrades and the
// write sheds with ErrOutOfSpace.
func (l *Log) AllocPage(now sim.Time) (nand.PageAddr, sim.Time, error) {
	return l.AllocPageReserve(now, l.cfg.dataReserve())
}

// AllocPageReserve allocates a log-head page while keeping at least reserve
// segments free. Space-freeing operations (ioSnap's snapshot delete and
// deactivate notes) pass a lower reserve so they still work while the device
// is degraded; everything else goes through AllocPage. The returned time
// reflects any synchronous cleaning the caller had to wait for.
func (l *Log) AllocPageReserve(now sim.Time, reserve int) (nand.PageAddr, sim.Time, error) {
	if l.HeadIdx == l.cfg.Nand.PagesPerSegment {
		// Forced cleaning: the pool is down to the reserve and the writer
		// must wait. If cleaning cannot lift it back out, the write is shed
		// instead of bricking the device — reads, trims, and cleaning
		// continue, and the next write re-evaluates the pool from scratch.
		for len(l.FreeSegs) <= reserve {
			var err error
			now, err = l.policy.CleanOnce(now, true)
			if err != nil {
				if errors.Is(err, ErrDeviceFull) {
					l.degraded = true
					l.stats.OutOfSpaceWrites++
					return 0, now, ErrOutOfSpace
				}
				return 0, now, err
			}
		}
		l.degraded = false
		l.nextHead()
		l.policy.HeadAdvanced(now)
		l.maybeScheduleCheckpoint(now)
	}
	addr := l.Dev.Addr(l.HeadSeg, l.HeadIdx)
	l.HeadIdx++
	return addr, now, nil
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

// UngetPage rolls back the most recent allocation after a failed program.
// Without it the unprogrammed page becomes a permanent hole at the log head:
// SequentialProg devices reject every later program in the segment with
// ErrOutOfOrder, turning one transient fault into a bricked log. Only the
// exact page just handed out is reclaimed, and only if the program really did
// not land.
func (l *Log) UngetPage(addr nand.PageAddr) {
	if l.HeadIdx == 0 || addr != l.Dev.Addr(l.HeadSeg, l.HeadIdx-1) {
		return
	}
	if _, err := l.Dev.PageOOB(addr); err == nil {
		return // the program landed after all (e.g. a post-program fault)
	}
	l.HeadIdx--
}

// SealHead abandons the rest of a suspect head segment so subsequent appends
// land on healthy media; the suspect segment's existing data is rescued when
// the cleaner (or ioSnap's scrubber) picks it. With no spare free segment the
// head stays put: the next write retries in place rather than starving the
// cleaner.
func (l *Log) SealHead() {
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
