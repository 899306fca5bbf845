package iosnap

import (
	"fmt"

	"iosnap/internal/sim"
)

// rescueSegment synchronously moves everything worth keeping off seg and
// retires it (logcore.CleanSegment), used by the scrubber when a specific
// segment is dying. Unlike a background clean, the rescue waits for the
// merge that brings seg's cache up to date.
func (f *FTL) rescueSegment(now sim.Time, seg int) (sim.Time, error) {
	if seg == f.HeadSeg {
		return now, fmt.Errorf("iosnap: cannot rescue the log head segment %d", seg)
	}
	if seg == f.GCVictim {
		return now, fmt.Errorf("iosnap: segment %d is mid-clean", seg)
	}
	if !f.SegInUse(seg) {
		return now, fmt.Errorf("iosnap: segment %d not in use", seg)
	}
	cost := f.acct.ensureFresh(seg)
	f.stats.GCMergeTime += cost
	now, err := f.CleanSegment(now.Add(cost), seg)
	if err != nil {
		return now, fmt.Errorf("iosnap: rescuing segment %d: %w", seg, err)
	}
	return now, nil
}
