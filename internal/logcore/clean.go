package logcore

import (
	"fmt"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// The clean lifecycle, one copy for both FTLs. What a clean decides — the
// victim, the work estimate, the merge it waits for, which of the victim's
// pages to copy and what a moved block owes — is the policy's (PickVictim,
// PlanClean); admission, pacing, the copy-forward batch, abort, the erase and
// the chaining onto the next victim are here.

// CleanPlan is a policy's plan for cleaning one victim (Policy.PlanClean).
type CleanPlan struct {
	// Estimate is the number of pages the policy expects to copy: a
	// background clean spreads ⌈Estimate/GCChunk⌉ quanta over GCWindow, and
	// quanta past them run unpaced (GCUnpacedQuanta).
	Estimate int
	// Merge is the validity-merge CPU the clean waits for before its first
	// copy; the engine books it into GCMergeTime.
	Merge sim.Duration
	// Next yields the victim page indices of the next quantum, at most max of
	// them, in copy order (pinned pages included), and whether any remain
	// after it.
	Next func(max int) (order []int, more bool)
	// Moved re-points whatever referenced each block the clean copies.
	Moved MovedFunc
}

// MovedFunc is a policy's fix-up for one block the cleaner copied off victim
// from old to dst: re-point whatever referenced it. A pinned page (a
// checkpoint chunk or translation page) is valid in no bitmap and mapped by
// no view — its pin has already followed it.
type MovedFunc func(victim int, old, dst nand.PageAddr, h header.Header)

// CleaningActive reports whether a background clean (started by MaybeClean
// or ForceClean) is in flight.
func (l *Log) CleaningActive() bool { return l.GCVictim >= 0 }

// MaybeClean starts a background clean when none is running, the log is
// open and the free pool is at or below ReserveSegments. The policy picks
// the victim; when nothing is reclaimable no clean starts.
func (l *Log) MaybeClean(now sim.Time) {
	if l.CleaningActive() || l.closed || len(l.FreeSegs) > l.cfg.ReserveSegments {
		return
	}
	seg, cost := l.policy.PickVictim()
	l.stats.GCMergeTime += cost
	if seg >= 0 {
		l.startClean(now, seg)
	}
}

// ForceClean starts a paced background clean of a specific segment — the
// methodology of the paper's Table 4 / Figure 10, which forces the cleaner
// onto the segment that was just written while foreground I/O continues. Use
// CleaningActive to observe completion.
func (l *Log) ForceClean(now sim.Time, seg int) error {
	if l.closed {
		return ErrClosed
	}
	if l.CleaningActive() {
		return fmt.Errorf("logcore: cleaner already active")
	}
	if seg < 0 || seg >= l.cfg.Nand.Segments || seg == l.HeadSeg {
		return fmt.Errorf("logcore: segment %d not cleanable", seg)
	}
	if !l.SegInUse(seg) {
		return fmt.Errorf("logcore: segment %d not in use", seg)
	}
	l.startClean(now, seg)
	return nil
}

// startClean plans the clean of seg, marks seg as owned by it and queues it.
func (l *Log) startClean(now sim.Time, seg int) {
	plan := l.policy.PlanClean(seg)
	l.GCVictim = seg
	l.Sched.Schedule(now, &cleanTask{
		l:       l,
		victim:  seg,
		plan:    plan,
		pacer:   ratelimit.NewPacer(now, (plan.Estimate+l.cfg.GCChunk-1)/l.cfg.GCChunk, l.cfg.GCWindow),
		started: now,
	})
}

// cleanTask is the background clean of one victim: a quantum of up to
// GCChunk pages per run, paced over GCWindow.
type cleanTask struct {
	l       *Log
	victim  int
	plan    CleanPlan
	pacer   *ratelimit.Pacer
	started sim.Time
	merged  bool
}

// Name implements sim.Task.
func (t *cleanTask) Name() string { return fmt.Sprintf("clean(seg %d)", t.victim) }

// Run implements sim.Task: one paced quantum of copy-forward, and the erase
// after the last.
func (t *cleanTask) Run(now sim.Time) (sim.Time, bool) {
	l := t.l
	if l.closed {
		return 0, true // cancelled by Close, which released the slot
	}
	if !t.merged {
		now = l.chargeMerge(now, t.plan.Merge)
		t.merged = true
	}
	order, more := t.plan.Next(l.cfg.GCChunk)
	now, err := l.copyForward(now, t.victim, order, t.plan.Moved)
	if err != nil {
		// Abort, but leave the victim cleanable: blocks already moved were
		// re-pointed one by one, the failed destination was rolled back, and
		// the victim stays in UsedSegs for a later clean to pick again.
		l.abortClean(err)
		return 0, true
	}
	if more {
		next := t.pacer.Ready(now)
		if _, overrun := t.pacer.Consumed(); overrun {
			// The estimate was exhausted: this quantum (and the rest of the
			// segment) runs unthrottled — the failure mode of a snapshot-
			// unaware work estimate (Figure 10b).
			l.stats.GCUnpacedQuanta++
		}
		return next, false
	}
	if now, err = l.finishClean(now, t.victim); err != nil {
		// Erase failed: the victim stays in UsedSegs, consistent.
		l.abortClean(err)
		return 0, true
	}
	l.endClean()
	l.cleanDone(now, t.started)
	l.MaybeClean(now) // chain onto the next victim if the pool is still low
	return 0, true
}

// endClean releases the background-clean slot — finished, aborted or
// cancelled by Close.
func (l *Log) endClean() { l.GCVictim = -1 }

// abortClean ends a background clean on a device error, recording it.
func (l *Log) abortClean(err error) {
	l.endClean()
	l.stats.GCErrors++
	l.stats.GCLastErr = err.Error()
}

// forcedClean is the clean a writer at the pool's floor waits for
// (allocPage): the policy's victim, copied in one unpaced go and erased. It
// returns ErrDeviceFull when nothing is reclaimable.
func (l *Log) forcedClean(now sim.Time) (sim.Time, error) {
	seg, cost := l.policy.PickVictim()
	l.stats.GCMergeTime += cost
	now = now.Add(cost)
	if seg < 0 {
		return now, ErrDeviceFull
	}
	plan := l.policy.PlanClean(seg)
	now = l.chargeMerge(now, plan.Merge)
	start := now
	now, err := l.clean(now, seg, plan)
	if err != nil {
		return now, err
	}
	l.stats.GCForced++
	l.cleanDone(now, start)
	return now, nil
}

// CleanSegment synchronously moves everything the policy keeps off seg and
// erases it, or retires it when it is dying: ioSnap's rescue of a suspect
// segment. The caller has checked that seg is in use, not the log head and
// not a background clean's victim.
func (l *Log) CleanSegment(now sim.Time, seg int) (sim.Time, error) {
	plan := l.policy.PlanClean(seg)
	return l.clean(l.chargeMerge(now, plan.Merge), seg, plan)
}

// clean copies every page plan keeps off seg unpaced, then erases or retires
// seg.
func (l *Log) clean(now sim.Time, seg int, plan CleanPlan) (sim.Time, error) {
	for more := true; more; {
		var order []int
		order, more = plan.Next(l.cfg.Nand.PagesPerSegment)
		var err error
		if now, err = l.copyForward(now, seg, order, plan.Moved); err != nil {
			return now, err
		}
	}
	return l.finishClean(now, seg)
}

// chargeMerge books a clean's validity merge and returns when it is done.
func (l *Log) chargeMerge(now sim.Time, cost sim.Duration) sim.Time {
	l.stats.GCMergeTime += cost
	return now.Add(cost)
}

// copyForward moves the victim's pages order (page indices the policy found
// worth keeping, pinned pages included) to the log head and returns the
// completion time. For each page that landed, the destination segment
// inherits the block's age, a pin follows its page, and moved — the
// policy's fix-up — re-points whatever referenced the block.
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
// head). On an error the destinations never attempted go back to the head.
func (l *Log) copyForward(now sim.Time, victim int, order []int, moved MovedFunc) (sim.Time, error) {
	maxDone := now
	pps := l.cfg.Nand.PagesPerSegment
	var (
		froms, tos []nand.PageAddr
		hs         []header.Header
	)
	for len(order) > 0 {
		froms, tos, hs = froms[:0], tos[:0], hs[:0]
		room := len(order)
		var planErr error
		for len(froms) < room {
			old := l.Dev.Addr(victim, order[0])
			order = order[1:]
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
		if copyErr != nil {
			l.handBack(tos, n)
			return maxDone, fmt.Errorf("logcore: copy-forward: %w", copyErr)
		}
		if planErr != nil {
			return maxDone, planErr
		}
	}
	return maxDone, nil
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

// finishClean erases the victim and returns it to the free pool — or retires
// it. By this point every block the policy still needs has been copied off,
// so a permanently failing or suspect victim can leave service without
// losing a byte; returning it to the pool would just let the next writer
// trip over the same dying segment.
func (l *Log) finishClean(now sim.Time, victim int) (sim.Time, error) {
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

// cleanDone records a completed clean that started at started.
func (l *Log) cleanDone(now, started sim.Time) {
	l.stats.GCRuns++
	l.stats.GCTotalTime += now.Sub(started)
	l.stats.GCLastAt = now
}
