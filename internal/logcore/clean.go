package logcore

import (
	"fmt"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// Cleaner mechanics both cleaners share. Which segment to clean, which of
// its blocks are still needed and what a moved block's metadata owes are the
// policy's (each FTL's gc.go); admission, the copy-forward batch, the erase
// and the pools are here.

// CleaningActive reports whether a background clean (scheduled or forced by
// ForceClean) is in flight.
func (l *Log) CleaningActive() bool { return l.gcActive }

// AdmitClean reports whether a background clean should start now: none is
// running, the log is open, and the pool is at or below ReserveSegments.
func (l *Log) AdmitClean() bool {
	return !l.gcActive && !l.closed && len(l.FreeSegs) <= l.cfg.ReserveSegments
}

// CleanPacer spreads a clean the policy estimates at est pages over
// GCWindow, in quanta of GCChunk pages.
func (l *Log) CleanPacer(now sim.Time, est int) *ratelimit.Pacer {
	return ratelimit.NewPacer(now, (est+l.cfg.GCChunk-1)/l.cfg.GCChunk, l.cfg.GCWindow)
}

// BeginClean marks victim as owned by a background clean and queues its task.
func (l *Log) BeginClean(now sim.Time, victim int, task sim.Task) {
	l.gcActive = true
	l.GCVictim = victim
	l.Sched.Schedule(now, task)
}

// EndClean releases the background-clean slot — finished, aborted or
// cancelled by Close.
func (l *Log) EndClean() {
	l.gcActive = false
	l.GCVictim = -1
}

// AbortClean ends a background clean on a device error, recording it.
func (l *Log) AbortClean(err error) {
	l.EndClean()
	l.stats.GCErrors++
	l.stats.GCLastErr = err.Error()
}

// ForceClean schedules a paced background clean of a specific segment — the
// methodology of the paper's Table 4 / Figure 10, which forces the cleaner
// onto the segment that was just written while foreground I/O continues. Use
// CleaningActive to observe completion.
func (l *Log) ForceClean(now sim.Time, seg int) error {
	if l.closed {
		return ErrClosed
	}
	if l.gcActive {
		return fmt.Errorf("logcore: cleaner already active")
	}
	if seg < 0 || seg >= l.cfg.Nand.Segments || seg == l.HeadSeg {
		return fmt.Errorf("logcore: segment %d not cleanable", seg)
	}
	if !l.SegInUse(seg) {
		return fmt.Errorf("logcore: segment %d not in use", seg)
	}
	l.policy.ScheduleClean(now, seg)
	return nil
}

// MovedFunc is a policy's fix-up for one block the cleaner copied off victim
// from old to dst: re-point whatever referenced it. A pinned page (a
// checkpoint chunk or translation page) is valid in no bitmap and mapped by
// no view — its pin has already followed it.
type MovedFunc func(victim int, old, dst nand.PageAddr, h header.Header)

// CopyForward moves up to max of the victim's pages order[cursor:] (page
// indices the policy found worth keeping, pinned pages included) to the log
// head and returns the new cursor and the completion time. For each page
// that landed, the destination segment inherits the block's age, a pin
// follows its page, and moved — the policy's fix-up — re-points whatever
// referenced the block.
//
// The quantum is planned first (destination allocation and header decode are
// host-side) and then issued as one batched CopyPages run per head segment.
// The copies of a quantum are pipelined like a cleaner thread's batch of
// copyback commands: submitted together at the quantum's start and
// serialized by the device's per-channel queues (nand.CopyPages is exactly
// sequential-equivalent). A permanent copy failure blames the source
// segment: that is the segment the cleaner is moving data off, and
// suspecting it drives the rescue machinery toward the data most at risk (a
// permanent destination failure resurfaces as a program failure on the
// head).
func (l *Log) CopyForward(now sim.Time, victim int, order []int, cursor, max int, moved MovedFunc) (int, sim.Time, error) {
	copied := 0
	maxDone := now
	pps := l.cfg.Nand.PagesPerSegment
	var (
		froms, tos []nand.PageAddr
		hs         []header.Header
	)
	for cursor < len(order) && copied < max {
		froms, tos, hs = froms[:0], tos[:0], hs[:0]
		room := max - copied
		var planErr error
		for len(froms) < room && cursor < len(order) {
			old := l.Dev.Addr(victim, order[cursor])
			cursor++
			dst, h, err := l.planCopy(old)
			if err != nil {
				planErr = err
				break
			}
			froms = append(froms, old)
			tos = append(tos, dst)
			hs = append(hs, h)
			if len(froms) == 1 {
				// Confine the batch to the current head segment so a
				// mid-batch failure rolls back with a plain HeadIdx walk.
				if r := 1 + pps - l.HeadIdx; r < room {
					room = r
				}
			}
		}
		n, d, copyErr := l.batched(now, froms, func(at sim.Time, lo, hi int) (int, sim.Time, error) {
			return l.Dev.CopyPages(at, froms[lo:hi], tos[lo:hi])
		})
		if d > maxDone {
			maxDone = d
		}
		for j := 0; j < n; j++ {
			l.blockMoved(victim, froms[j], tos[j], hs[j], moved)
		}
		copied += n
		if copyErr != nil {
			// The destinations never attempted go back to the head; the
			// cursor resumes just past the failing entry in order.
			return cursor - l.handBack(tos, n), maxDone, fmt.Errorf("logcore: copy-forward: %w", copyErr)
		}
		if planErr != nil {
			return cursor, maxDone, planErr
		}
	}
	return cursor, maxDone, nil
}

// planCopy allocates old's destination at the head and decodes its header.
func (l *Log) planCopy(old nand.PageAddr) (nand.PageAddr, header.Header, error) {
	dst, err := l.allocPageGC()
	if err != nil {
		return 0, header.Header{}, err
	}
	oob, err := l.Dev.PageOOB(old)
	if err != nil {
		l.ungetPage(dst)
		return 0, header.Header{}, fmt.Errorf("logcore: cleaner reading header: %w", err)
	}
	h, err := header.Unmarshal(oob)
	if err != nil {
		l.ungetPage(dst)
		return 0, header.Header{}, fmt.Errorf("logcore: cleaner decoding header: %w", err)
	}
	return dst, h, nil
}

// blockMoved applies the log's share of the metadata moves for one copied
// page, then the policy's.
func (l *Log) blockMoved(victim int, old, dst nand.PageAddr, h header.Header, moved MovedFunc) {
	// The destination inherits the block's age (its original seq), as a
	// recovery scan of the moved header would find it.
	if dseg := l.Dev.SegmentOf(dst); h.Seq > l.SegLastSeq[dseg] {
		l.SegLastSeq[dseg] = h.Seq
	}
	// A pinned page has no translation or validity bit to move: the pin and
	// whatever names the page — the anchor, the in-flight chunk list, the
	// GTD — follow it instead.
	if _, pinned := l.MapPins[old]; pinned || l.CkptPins[old] {
		if h.Type == header.TypeMapPage {
			l.moveMapPin(old, dst)
		} else {
			l.movePin(old, dst)
		}
	}
	moved(victim, old, dst, h)
	l.stats.GCCopied++
}

// FinishClean erases the victim and returns it to the free pool — or retires
// it. By this point every block the policy still needs has been copied off,
// so a permanently failing or suspect victim can leave service without
// losing a byte; returning it to the pool would just let the next writer
// trip over the same dying segment.
func (l *Log) FinishClean(now sim.Time, victim int) (sim.Time, error) {
	done, err := l.devEraseSegment(now, victim)
	if err != nil {
		if retry.MediaFailure(err) {
			l.retireSegment(victim)
			return now, nil
		}
		return now, fmt.Errorf("logcore: erasing segment %d: %w", victim, err)
	}
	l.stats.GCErases++
	if l.Dev.SegmentHealth(victim) != nand.Healthy {
		l.retireSegment(victim)
		return done, nil
	}
	l.UsedSegs = without(l.UsedSegs, victim)
	l.FreeSegs = append(l.FreeSegs, victim)
	l.untrack(victim)
	return done, nil
}

// CleanDone records a completed clean that started at started.
func (l *Log) CleanDone(now, started sim.Time) {
	l.stats.GCRuns++
	l.stats.GCTotalTime += now.Sub(started)
	l.stats.GCLastAt = now
}
