package logcore

import (
	"fmt"
	"sort"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// The recovery shell: what a crash recovery does to the log whichever FTL
// runs it. The policy's Recover drives it — Init over the existing device,
// then either the anchor's chunks (ReadAnchorChunks, AssembleStream,
// CheckSegTable) and a scan of the segments written since, or a scan of
// everything; RecoverMap; RebuildGeometry — and interprets the records.

// AnchorChunk is one checkpoint chunk the device anchor names.
type AnchorChunk struct {
	Addr    nand.PageAddr
	Idx     uint64 // position in its stream
	Total   uint64 // the stream's chunk count
	Payload []byte
}

// ReadAnchorChunks reads every chunk the device anchor names, in anchor
// order, with one DevReadPages call (cell reads overlap across channels
// instead of chaining). ok=false means a chunk is gone, unreadable, or no
// longer a checkpoint page: the generation cannot be trusted.
func (l *Log) ReadAnchorChunks(now sim.Time) (chunks []AnchorChunk, done sim.Time, ok bool) {
	addrs := l.Dev.Anchor().Addrs
	chunks = make([]AnchorChunk, 0, len(addrs))
	// Validate the chunk headers host-side first.
	for _, addr := range addrs {
		oob, err := l.Dev.PageOOB(addr)
		if err != nil {
			return nil, now, false
		}
		h, err := header.Unmarshal(oob)
		if err != nil || !h.Type.IsCheckpoint() {
			return nil, now, false
		}
		chunks = append(chunks, AnchorChunk{Addr: addr, Idx: h.LBA, Total: h.Epoch})
	}
	payloads, _, _, done, err := l.DevReadPages(now, addrs)
	if err != nil {
		return nil, done, false
	}
	for i := range chunks {
		chunks[i].Payload = payloads[i]
	}
	return chunks, done, true
}

// AssembleStream proves the chunks are one complete stream — indices
// {0..total-1}, one copy each, one total — joins it under generation id, and
// decodes it. ok=false means a torn, mixed or partially-reclaimed stream.
func AssembleStream(id uint64, group []AnchorChunk) (secs []Section, ok bool) {
	if len(group) == 0 {
		return nil, false
	}
	total := group[0].Total
	if total == 0 || uint64(len(group)) != total {
		return nil, false
	}
	ordered := make([][]byte, total)
	for _, c := range group {
		if c.Total != total || c.Idx >= total || ordered[c.Idx] != nil {
			return nil, false
		}
		ordered[c.Idx] = c.Payload
	}
	stream, err := join(id, ordered)
	if err != nil {
		return nil, false
	}
	secs, err = decodeStream(id, stream)
	return secs, err == nil
}

// Scan accumulates what a recovery scan learns about the log's geometry.
type Scan struct {
	SegUsed   []bool   // segment holds at least one programmed page
	SegMaxSeq []uint64 // newest sequence number seen (or recorded) per segment
	MaxSeq    uint64   // newest sequence number overall
}

// NewScan returns empty accumulators; maxSeq is the checkpoint cut-off a
// tail scan starts from (0 for a full scan).
func (l *Log) NewScan(maxSeq uint64) *Scan {
	return &Scan{
		SegUsed:   make([]bool, l.cfg.Nand.Segments),
		SegMaxSeq: make([]uint64, l.cfg.Nand.Segments),
		MaxSeq:    maxSeq,
	}
}

// Trust takes a checkpoint's word for a segment recovery does not scan.
func (sc *Scan) Trust(rec SegRecord) {
	sc.SegUsed[rec.Seg] = sc.SegUsed[rec.Seg] || rec.Prog > 0
	if rec.MaxSeq > sc.SegMaxSeq[rec.Seg] {
		sc.SegMaxSeq[rec.Seg] = rec.MaxSeq
	}
	if rec.MaxSeq > sc.MaxSeq {
		sc.MaxSeq = rec.MaxSeq
	}
}

// ScanSegment reads seg's OOB headers from page index from on, folds them
// into sc, and hands every parseable header to visit; visit returning false
// abandons the scan (ok=false, no error). Unparseable headers are torn
// writes at a crashed log tail: power failed mid-program, so their contents
// were never acknowledged — skipping one loses nothing and the cleaner
// reclaims the page, but it is evidence worth counting.
func (l *Log) ScanSegment(now sim.Time, seg, from int, sc *Scan,
	visit func(addr nand.PageAddr, h header.Header) bool) (done sim.Time, ok bool, err error) {
	oobs, done, err := l.DevScanSegmentOOB(now, seg)
	if err != nil {
		return now, false, fmt.Errorf("logcore: scanning segment %d: %w", seg, err)
	}
	l.stats.RecoverySegsScanned++
	l.stats.RecoveryHeaderPages += int64(l.cfg.Nand.PagesPerSegment)
	for idx := from; idx < len(oobs); idx++ {
		if oobs[idx] == nil {
			continue
		}
		sc.SegUsed[seg] = true
		h, err := header.Unmarshal(oobs[idx])
		if err != nil {
			l.stats.TornPagesSkipped++
			continue
		}
		if !visit(l.Dev.Addr(seg, idx), h) {
			return done, false, nil
		}
		if h.Seq > sc.SegMaxSeq[seg] {
			sc.SegMaxSeq[seg] = h.Seq
		}
		if h.Seq > sc.MaxSeq {
			sc.MaxSeq = h.Seq
		}
	}
	return done, true, nil
}

// RebuildGeometry reconstructs the segment pools, the log head and the
// sequence counter from what a recovery scan produced, and tells the policy
// which segments are in use — in final UsedSegs order, so victim tie-breaks
// match a linear oldest-first scan.
func (l *Log) RebuildGeometry(sc *Scan) error {
	l.Seq = sc.MaxSeq
	type segOrder struct {
		seg int
		seq uint64
	}
	var used []segOrder
	for seg := 0; seg < l.cfg.Nand.Segments; seg++ {
		switch {
		case l.Dev.SegmentHealth(seg) == nand.Retired:
			// Belongs to neither pool: a grown bad block stays out of service.
		case sc.SegUsed[seg]:
			used = append(used, segOrder{seg, sc.SegMaxSeq[seg]})
		default:
			l.FreeSegs = append(l.FreeSegs, seg)
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i].seq < used[j].seq })
	for _, u := range used {
		l.UsedSegs = append(l.UsedSegs, u.seg)
	}
	copy(l.SegLastSeq, sc.SegMaxSeq)
	// The head resumes at the newest segment if it still has room — and is
	// healthy; appending onto suspect media would repeat the failure that
	// made it suspect. With no free segment either (a cleaner's copies took
	// the last one before its victim's erase), the head stays at that
	// segment's end, as in the live log: the first write cleans first.
	resumed := false
	if len(l.UsedSegs) > 0 {
		last := l.UsedSegs[len(l.UsedSegs)-1]
		switch next := l.Dev.NextFreeInSegment(last); {
		case next < l.cfg.Nand.PagesPerSegment && l.Dev.SegmentHealth(last) == nand.Healthy:
			l.HeadSeg, l.HeadIdx = last, next
			resumed = true
		case len(l.FreeSegs) == 0:
			l.HeadSeg, l.HeadIdx = last, l.cfg.Nand.PagesPerSegment
			resumed = true
		}
	}
	if !resumed {
		if len(l.FreeSegs) == 0 {
			return ErrDeviceFull
		}
		l.HeadSeg = l.FreeSegs[0]
		l.FreeSegs = l.FreeSegs[1:]
		l.HeadIdx = 0
		l.UsedSegs = append(l.UsedSegs, l.HeadSeg)
	}
	for _, s := range l.UsedSegs {
		l.track(s, false)
	}
	return nil
}
