package logcore

import (
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// The media-failure boundary: every NAND operation goes through a wrapper
// that retries transient errors under mediaRetry and, when a failure proves
// permanent, marks the affected segment suspect so the cleaner (or ioSnap's
// scrubber) rescues its data and retires it.

// mediaRetry bounds per-NAND-operation retries of transient media errors.
// Errors that persist past its budget are permanent.
var mediaRetry = retry.Default()

// markSuspect records a permanent media failure against seg.
func (l *Log) markSuspect(seg int) {
	if l.Dev.SegmentHealth(seg) != nand.Healthy {
		return
	}
	l.Dev.MarkSuspect(seg)
	l.stats.MediaFailures++
}

// retried runs one device operation under the retry policy; a failure that
// proves permanent marks segment blame suspect.
func (l *Log) retried(now sim.Time, blame int, op func(at sim.Time) (sim.Time, error)) (sim.Time, error) {
	done, retries, err := mediaRetry.Do(now, op)
	l.stats.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.markSuspect(blame)
	}
	return done, err
}

// DevProgramPage programs one page: a note, a translation page or a
// checkpoint chunk.
func (l *Log) DevProgramPage(now sim.Time, addr nand.PageAddr, data, oob []byte) (sim.Time, error) {
	return l.retried(now, l.Dev.SegmentOf(addr), func(at sim.Time) (sim.Time, error) {
		return l.Dev.ProgramPage(at, addr, data, oob)
	})
}

func (l *Log) devEraseSegment(now sim.Time, seg int) (sim.Time, error) {
	return l.retried(now, seg, func(at sim.Time) (sim.Time, error) {
		return l.Dev.EraseSegment(at, seg)
	})
}

// DevScanSegmentOOB reads every OOB header of seg in one device operation
// (recovery, activation and export scans, scrub read-verification). The
// returned slice is per-log scratch, valid until the next DevScanSegmentOOB.
func (l *Log) DevScanSegmentOOB(now sim.Time, seg int) (oobs [][]byte, done sim.Time, err error) {
	done, err = l.retried(now, seg, func(at sim.Time) (sim.Time, error) {
		var e error
		oobs, at, e = l.Dev.ScanSegmentOOB(at, seg, l.ws.scanOOBs)
		return at, e
	})
	if err == nil {
		l.ws.scanOOBs = oobs
	}
	return oobs, done, err
}

// devProgramPages is the batched data path's program boundary: one device
// call for the whole run. The batch call counts as each page's first
// attempt; when a page fails transiently, it alone re-enters the policy's
// backoff schedule (retry.DoFrom) and, once it lands, the remainder of the
// batch resumes at the recovered page's completion time. Returns how many
// pages landed, the completion time of the landed pages, and the first
// unrecovered error.
func (l *Log) devProgramPages(now sim.Time, addrs []nand.PageAddr, datas, oobs [][]byte) (n int, done sim.Time, err error) {
	done = now
	at := now
	for n < len(addrs) {
		k, d, e := l.Dev.ProgramPages(at, addrs[n:], datas[n:], oobs[n:])
		n += k
		if d > done {
			done = d
		}
		if e == nil {
			return n, done, nil
		}
		d2, retries, e2 := mediaRetry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			return l.Dev.ProgramPage(t, addrs[n], datas[n], oobs[n])
		})
		l.stats.Retries += retries
		if d2 > done {
			done = d2
		}
		if e2 != nil {
			if retry.MediaFailure(e2) {
				l.markSuspect(l.Dev.SegmentOf(addrs[n]))
			}
			return n, done, e2
		}
		n++
		at = d2
	}
	return n, done, nil
}

// DevReadPages is the batched read boundary, with the same per-page retry
// continuation as devProgramPages. Returned slices alias device memory and
// per-FTL scratch: they are valid until the next DevReadPages call, so
// callers that loop must copy out what they keep (slice headers suffice —
// the device page memory itself is stable).
func (l *Log) DevReadPages(now sim.Time, addrs []nand.PageAddr) (datas, oobs [][]byte, n int, done sim.Time, err error) {
	done = now
	at := now
	datas = l.ws.rdatas[:0]
	oobs = l.ws.roobs[:0]
	defer func() { l.ws.rdatas, l.ws.roobs = datas, oobs }()
	for n < len(addrs) {
		k, d, e := l.Dev.ReadPagesInto(at, addrs[n:], &datas, &oobs)
		n += k
		if d > done {
			done = d
		}
		if e == nil {
			return datas, oobs, n, done, nil
		}
		var data, oob []byte
		d2, retries, e2 := mediaRetry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			var e3 error
			data, oob, t, e3 = l.Dev.ReadPage(t, addrs[n])
			return t, e3
		})
		l.stats.Retries += retries
		if d2 > done {
			done = d2
		}
		if e2 != nil {
			if retry.MediaFailure(e2) {
				l.markSuspect(l.Dev.SegmentOf(addrs[n]))
			}
			return datas, oobs, n, done, e2
		}
		datas = append(datas, data)
		oobs = append(oobs, oob)
		n++
		at = d2
	}
	return datas, oobs, n, done, nil
}

// devCopyForward is the cleaner's batched copy-forward boundary. A permanent
// copy failure is attributed to the source segment: that is the segment the
// cleaner is moving data off, and suspecting it drives the rescue machinery
// toward the data most at risk. (A permanent destination failure resurfaces
// as a program failure on the head.)
func (l *Log) devCopyForward(now sim.Time, froms, tos []nand.PageAddr) (n int, done sim.Time, err error) {
	done = now
	at := now
	for n < len(froms) {
		k, d, e := l.Dev.CopyPages(at, froms[n:], tos[n:])
		n += k
		if d > done {
			done = d
		}
		if e == nil {
			return n, done, nil
		}
		d2, retries, e2 := mediaRetry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			return l.Dev.CopyPage(t, froms[n], tos[n])
		})
		l.stats.Retries += retries
		if d2 > done {
			done = d2
		}
		if e2 != nil {
			if retry.MediaFailure(e2) {
				l.markSuspect(l.Dev.SegmentOf(froms[n]))
			}
			return n, done, e2
		}
		n++
		at = d2
	}
	return n, done, nil
}
