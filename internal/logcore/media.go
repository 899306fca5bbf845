package logcore

import (
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// The media-failure boundary: every NAND operation retries transient errors
// under mediaRetry and, when a failure proves permanent, marks the affected
// segment suspect so the cleaner (or ioSnap's scrubber) rescues its data and
// retires it. Page programs, reads and copies are batch device calls under
// one continuation loop (batched); erases and OOB scans are whole-segment
// operations under retried.

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

// retried runs one segment operation under the retry policy; a failure that
// proves permanent marks segment blame suspect.
func (l *Log) retried(now sim.Time, blame int, op func(at sim.Time) (sim.Time, error)) (sim.Time, error) {
	done, retries, err := mediaRetry.Do(now, retry.Transient, op)
	l.stats.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.markSuspect(blame)
	}
	return done, err
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

// batched runs a run of pages through one batch device call: call(at, lo,
// hi) submits pages [lo, hi) at at and returns how many landed, their
// completion time and the failing page's error. The batch call counts as
// each page's first attempt; when a page fails transiently, it alone
// re-enters the policy's backoff schedule (retry.DoFrom) as a one-page call
// and, once it lands, the rest of the run resumes at its completion time. A
// failure that proves permanent marks the segment of blame[i] suspect —
// the destination of a program, the page of a read, the source of a copy.
// Returns how many pages landed, their completion time, and the first
// unrecovered error.
func (l *Log) batched(now sim.Time, blame []nand.PageAddr, call func(at sim.Time, lo, hi int) (int, sim.Time, error)) (n int, done sim.Time, err error) {
	done = now
	at := now
	for n < len(blame) {
		k, d, e := call(at, n, len(blame))
		n += k
		done = max(done, d)
		if e == nil {
			break
		}
		d, retries, e := mediaRetry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			_, d, e := call(t, n, n+1)
			return d, e
		})
		l.stats.Retries += retries
		done = max(done, d)
		if e != nil {
			if retry.MediaFailure(e) {
				l.markSuspect(l.Dev.SegmentOf(blame[n]))
			}
			return n, done, e
		}
		n++
		at = d
	}
	return n, done, nil
}

// DevReadPages reads a run of pages under batched. Returned slices alias
// device memory and per-log scratch: they are valid until the next
// DevReadPages call, so callers that loop must copy out what they keep
// (slice headers suffice — the device page memory itself is stable).
func (l *Log) DevReadPages(now sim.Time, addrs []nand.PageAddr) (datas, oobs [][]byte, n int, done sim.Time, err error) {
	datas, oobs = l.ws.rdatas[:0], l.ws.roobs[:0]
	n, done, err = l.batched(now, addrs, func(at sim.Time, lo, hi int) (int, sim.Time, error) {
		return l.Dev.ReadPagesInto(at, addrs[lo:hi], &datas, &oobs)
	})
	l.ws.rdatas, l.ws.roobs = datas, oobs
	return datas, oobs, n, done, err
}
