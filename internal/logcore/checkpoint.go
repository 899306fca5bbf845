package logcore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"iosnap/internal/codec"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Checkpoint transport. A checkpoint is one stream of sections: frames of
// the shared codec (internal/codec) — the generation frame, then one frame
// per section — split into sector-sized chunks tagged with the checkpoint
// ID. Every chunk is a header.TypeCheckpoint page whose OOB header carries
// its index (LBA field) and the stream's total chunk count (Epoch field), so
// a reader can prove the stream complete ({0..total-1}, all tagged with one
// ID) before decoding anything. The device anchor — updated atomically only
// at commit — names every chunk of the committed generation, and those pages
// are pinned so the cleaner copies them forward instead of reclaiming them.
// One task writes a generation (ckptTask): scheduled in the background, or
// run to its end by Close.
//
// The checkpoint's identity doubles as its cut-off: the ID is Seq at
// serialization, and recovery replays only records with a newer seq on top
// of the loaded state. What the sections hold is the policy's
// (Policy.SerializeCheckpoint); the forward-map section and the segment-table
// records every checkpoint needs are encoded and decoded here.
//
// The segment table is what makes a checkpoint safely *skippable* work at
// recovery: for every used segment it records the erase count, programmed
// page count, and newest sequence number at serialization time. A segment
// whose erase count has since changed was reclaimed by the cleaner — its
// blocks were copy-forwarded with their sequence numbers preserved, i.e.
// below the cut-off and invisible to tail replay — so the whole checkpoint
// is stale and recovery falls back to the full scan.

// Section is one typed region of a checkpoint stream: Kind is its frame
// type (codec.CkptMap and the rest), Data its payload.
type Section struct {
	Kind byte
	Data []byte
}

// chunkPrefix is the per-chunk generation tag: the checkpoint ID,
// little-endian, at offset 0 of every chunk.
const chunkPrefix = 8

// errBadChunk reports a chunk that does not belong to the stream being
// joined.
var errBadChunk = errors.New("logcore: malformed checkpoint chunk")

// StreamJobs frames secs as the checkpoint stream of generation id and cuts
// it into the chunks that carry it: chunk i is programmed as index i of
// len(chunks).
func (l *Log) StreamJobs(id uint64, secs []Section) ([][]byte, error) {
	chunks, err := split(id, encodeStream(id, secs), l.cfg.Nand.SectorSize)
	if err != nil {
		return nil, fmt.Errorf("logcore: chunking the checkpoint stream: %w", err)
	}
	return chunks, nil
}

// encodeStream frames a stream: the generation frame — id and the section
// count — then one frame per section.
func encodeStream(id uint64, secs []Section) []byte {
	n := codec.Overhead + 8 + 4
	for _, s := range secs {
		n += codec.Overhead + len(s.Data)
	}
	w := codec.Writer{B: make([]byte, 0, n)}
	g := w.Begin(codec.CkptGeneration)
	w.U64(id)
	w.U32(uint32(len(secs)))
	w.End(g)
	for _, s := range secs {
		w.Frame(s.Kind, s.Data)
	}
	return w.B
}

// decodeStream opens a joined stream of generation id and returns its
// sections. Whatever follows the last section — the final chunk's zero
// padding — is not read.
func decodeStream(id uint64, stream []byte) ([]Section, error) {
	typ, gen, off, err := codec.Open(stream, len(stream))
	if err != nil {
		return nil, err
	}
	r := codec.Reader{B: gen}
	gotID, n := r.U64(), r.U32()
	switch {
	case typ != codec.CkptGeneration || r.Err() != nil || r.Rest() != 0:
		return nil, fmt.Errorf("logcore: checkpoint stream opens with frame type %d of %d bytes", typ, len(gen))
	case gotID != id:
		return nil, fmt.Errorf("logcore: checkpoint stream of generation %d, want %d", gotID, id)
	case uint64(n) > uint64((len(stream)-off)/codec.Overhead):
		return nil, fmt.Errorf("logcore: checkpoint stream claims %d sections: %w", n, codec.ErrTruncated)
	}
	secs := make([]Section, n)
	for i := range secs {
		typ, data, size, err := codec.Open(stream[off:], len(stream)-off)
		if err != nil {
			return nil, fmt.Errorf("logcore: checkpoint section %d: %w", i, err)
		}
		secs[i] = Section{Kind: typ, Data: data}
		off += size
	}
	return secs, nil
}

// split cuts a stream into sector-sized chunks, each prefixed with the
// checkpoint ID. The last chunk is zero-padded.
func split(id uint64, stream []byte, sectorSize int) ([][]byte, error) {
	payload := sectorSize - chunkPrefix
	if payload <= 0 {
		return nil, fmt.Errorf("logcore: sector size %d leaves no chunk payload", sectorSize)
	}
	chunks := make([][]byte, max(1, (len(stream)+payload-1)/payload))
	for i := range chunks {
		c := make([]byte, sectorSize)
		binary.LittleEndian.PutUint64(c, id)
		if lo := i * payload; lo < len(stream) {
			copy(c[chunkPrefix:], stream[lo:])
		}
		chunks[i] = c
	}
	return chunks, nil
}

// join strips the per-chunk prefixes, verifying every chunk carries
// generation id — two checkpoints interrupted at the right moments can leave
// chunks of different generations on the device, which an index-set check
// alone would stitch into a complete-looking stream — and returns the
// concatenated stream, the final chunk's padding still attached. The output
// is allocated once, at its final size.
func join(id uint64, chunks [][]byte) ([]byte, error) {
	n := 0
	for i, c := range chunks {
		if len(c) <= chunkPrefix {
			return nil, fmt.Errorf("%w: chunk %d too short", errBadChunk, i)
		}
		if got := binary.LittleEndian.Uint64(c); got != id {
			return nil, fmt.Errorf("%w: chunk %d has id %d, want %d", errBadChunk, i, got, id)
		}
		n += len(c) - chunkPrefix
	}
	if n == 0 {
		return nil, codec.ErrTruncated
	}
	out := make([]byte, 0, n)
	for _, c := range chunks {
		out = append(out, c[chunkPrefix:]...)
	}
	return out, nil
}

// programCkptChunk appends chunk idx of a stream of total chunks at the log
// head and pins it against the cleaner.
func (l *Log) programCkptChunk(now sim.Time, idx, total int, chunk []byte) (nand.PageAddr, sim.Time, error) {
	addrs, _, at, done, err := l.AppendRun(now, l.cfg.DataReserve(), 1, func(int) (header.Header, []byte) {
		return header.Header{Type: header.TypeCheckpoint, LBA: uint64(idx), Epoch: uint64(total)}, chunk
	})
	switch {
	case len(addrs) == 0:
		return 0, at, fmt.Errorf("logcore: allocating checkpoint page: %w", err)
	case err != nil:
		return 0, at, fmt.Errorf("logcore: writing checkpoint chunk %d: %w", idx, err)
	}
	l.pinChunk(addrs[0])
	return addrs[0], done, nil
}

// commitCheckpoint atomically publishes a fully-programmed generation: the
// device anchor flips and the superseded generation's pins drop, making its
// chunks reclaimable.
func (l *Log) commitCheckpoint(now sim.Time, ckptID uint64, addrs []nand.PageAddr) {
	for _, a := range l.AnchorAddrs {
		l.unpinChunk(a)
	}
	l.AnchorID = ckptID
	l.AnchorAddrs = addrs
	l.Dev.SetAnchor(&nand.Anchor{ID: ckptID, Addrs: addrs})
	l.lastCkpt = now
	l.stats.Checkpoints++
	l.stats.CheckpointChunks += int64(len(addrs))
}

// AdoptAnchor re-pins a generation recovery loaded, so the cleaner keeps
// honouring it until a newer one supersedes it.
func (l *Log) AdoptAnchor(id uint64, addrs []nand.PageAddr) {
	l.AnchorID = id
	l.AnchorAddrs = append([]nand.PageAddr(nil), addrs...)
	for _, a := range addrs {
		l.pinChunk(a)
	}
}

// movePin follows a copy-forwarded chunk: the pin moves with the page and
// whichever list names it — the committed anchor or the in-flight chunk
// list — is updated in place. A moved anchor chunk republishes the device
// anchor so recovery still finds every chunk.
func (l *Log) movePin(old, dst nand.PageAddr) {
	l.unpinChunk(old)
	l.pinChunk(dst)
	for i, a := range l.AnchorAddrs {
		if a == old {
			l.AnchorAddrs[i] = dst
			l.Dev.SetAnchor(&nand.Anchor{ID: l.AnchorID, Addrs: l.AnchorAddrs})
			return
		}
	}
	for i, a := range l.CkptInflight {
		if a == old {
			l.CkptInflight[i] = dst
			return
		}
	}
}

// pinChunk and unpinChunk are the only writers of CkptPins: each keeps the
// victim heap's per-segment pinned count in step with the set.
func (l *Log) pinChunk(a nand.PageAddr) {
	if !l.CkptPins[a] {
		l.CkptPins[a] = true
		l.addPinned(a, 1)
	}
}

func (l *Log) unpinChunk(a nand.PageAddr) {
	if l.CkptPins[a] {
		delete(l.CkptPins, a)
		l.addPinned(a, -1)
	}
}

// ckptFailed records an aborted checkpoint attempt and drops the pins of the
// chunks it had landed; the previous anchor stays.
func (l *Log) ckptFailed(landed []nand.PageAddr, err error) {
	for _, a := range landed {
		l.unpinChunk(a)
	}
	l.stats.CheckpointErrors++
	l.stats.CheckpointLastErr = err.Error()
}

// serialize flushes a paged map's dirty translation pages — the GTD a
// checkpoint serializes must reference current copies — and captures the
// policy's state.
func (l *Log) serialize(now sim.Time) (sim.Time, uint64, [][]byte, error) {
	if c, ok := l.ActiveMap.(*mapcache.Cache); ok {
		var err error
		if now, err = l.flushAllMapPages(now, c); err != nil {
			return now, 0, nil, err
		}
	}
	id, chunks, err := l.policy.SerializeCheckpoint()
	return now, id, chunks, err
}

// writeCheckpoint runs a checkpoint task to its end, one quantum after
// another (the Close path), and returns when it ended and its error. A
// background task it supersedes loses the pins of the chunks it landed, and
// its next quantum finds it no longer the live task and drops.
func (l *Log) writeCheckpoint(now sim.Time) (sim.Time, error) {
	for _, a := range l.CkptInflight {
		l.unpinChunk(a)
	}
	t := l.newCkptTask()
	for done := false; !done; {
		now, done = t.Run(now)
	}
	return now, t.err
}

// maybeScheduleCheckpoint arms the periodic background checkpoint from the
// head-advance path, the same way the cleaner is armed.
func (l *Log) maybeScheduleCheckpoint(now sim.Time) {
	if l.cfg.CheckpointInterval <= 0 || now.Sub(l.lastCkpt) < l.cfg.CheckpointInterval {
		return
	}
	l.StartCheckpoint(now)
}

// StartCheckpoint starts a background checkpoint now, whatever the interval
// (tests and tools). It reports whether a task was scheduled: not while one
// is running, on a closed log, or on a device that stores no payloads.
func (l *Log) StartCheckpoint(now sim.Time) bool {
	if l.ckptActive != nil || l.closed || !l.cfg.Nand.StoreData {
		return false
	}
	l.Sched.Schedule(now, l.newCkptTask())
	return true
}

// newCkptTask makes a checkpoint task the live one.
func (l *Log) newCkptTask() *ckptTask {
	t := &ckptTask{l: l}
	l.ckptActive = t
	l.CkptInflight = nil
	return t
}

// ckptTask writes one generation: its first run serializes it — the paged
// map's flush programs through the log head, which cannot happen from the
// head-advance path that schedules the task — and every run programs up to
// GCChunk chunks. The sections are captured at one instant, so foreground
// writes that land between quanta carry a seq above the checkpoint ID and
// are replayed on top at recovery — the checkpoint stays consistent without
// stalling writers. The task records its error, for Close.
type ckptTask struct {
	l      *Log
	id     uint64
	chunks [][]byte
	next   int
	err    error
}

// Name implements sim.Task.
func (t *ckptTask) Name() string { return fmt.Sprintf("checkpoint(%d)", t.id) }

// Run implements sim.Task: one batch of chunk programs.
func (t *ckptTask) Run(now sim.Time) (sim.Time, bool) {
	l := t.l
	if l.ckptActive != t {
		return 0, true // Close superseded this generation
	}
	if t.chunks == nil {
		var err error
		if now, t.id, t.chunks, err = l.serialize(now); err != nil {
			return t.finish(now, err)
		}
	}
	for programmed := 0; t.next < len(t.chunks) && programmed < l.cfg.GCChunk; programmed++ {
		addr, done, err := l.programCkptChunk(now, t.next, len(t.chunks), t.chunks[t.next])
		if err != nil {
			return t.finish(done, err)
		}
		l.CkptInflight = append(l.CkptInflight, addr)
		t.next++
		now = done
	}
	if t.next < len(t.chunks) {
		return now, false
	}
	l.commitCheckpoint(now, t.id, l.CkptInflight)
	return t.finish(now, nil)
}

// finish retires the task at now: a failed generation's landed chunks lose
// their pins, and a committed one's chunk list is the anchor's now.
func (t *ckptTask) finish(now sim.Time, err error) (sim.Time, bool) {
	l := t.l
	if err != nil {
		l.ckptFailed(l.CkptInflight, err)
	}
	t.err = err
	l.CkptInflight = nil
	l.ckptActive = nil
	return now, true
}

// ---- The sections every checkpoint carries. ----

// EncodeMapSection serializes the device's forward map. A tree serializes
// the full mapping list — count, then count × (lba, addr). A paged map
// serializes only the global translation directory (gtd = true): every dirty
// translation page was flushed before this point, so the directory's flash
// copies are current.
func (l *Log) EncodeMapSection() (data []byte, gtd bool, err error) {
	var w codec.Writer
	if c, ok := l.ActiveMap.(*mapcache.Cache); ok {
		if dirty := c.DirtyPages(); len(dirty) != 0 {
			return nil, true, fmt.Errorf("logcore: checkpoint with %d unflushed translation pages", len(dirty))
		}
		ents := c.GTDEntries()
		w.U32(uint32(c.SlotsPerPage()))
		w.U32(uint32(len(ents)))
		for _, ent := range ents {
			w.U64(ent.Idx)
			w.U64(ent.Addr)
			w.U32(uint32(ent.Live))
		}
		return w.B, true, nil
	}
	w.U64(uint64(l.ActiveMap.Len()))
	l.ActiveMap.All(func(lba, addr uint64) bool {
		w.U64(lba)
		w.U64(addr)
		return true
	})
	return w.B, false, nil
}

// DecodeMapSection parses a full mapping list. Section bodies arrive from an
// image file, so every count is proven against the bytes that remain
// (Reader.Count) before it sizes an allocation or a loop.
func DecodeMapSection(data []byte) ([]ftlmap.Entry, error) {
	r := codec.Reader{B: data}
	n := r.Count(r.U64(), 16)
	entries := make([]ftlmap.Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, ftlmap.Entry{Key: r.U64(), Val: r.U64()})
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("logcore: checkpoint map section: %w", r.Err())
	}
	return entries, nil
}

// DecodeGTDSection parses a paged checkpoint's translation
// directory and the translation-page geometry it was written under.
func DecodeGTDSection(data []byte) (gtd []mapcache.GTDEnt, slotsPer int, err error) {
	r := codec.Reader{B: data}
	slotsPer = int(r.U32())
	n := r.Count(uint64(r.U32()), 20)
	gtd = make([]mapcache.GTDEnt, 0, n)
	for i := 0; i < n; i++ {
		gtd = append(gtd, mapcache.GTDEnt{Idx: r.U64(), Addr: r.U64(), Live: int(r.U32())})
	}
	if r.Err() != nil {
		return nil, 0, fmt.Errorf("logcore: checkpoint GTD section: %w", r.Err())
	}
	return gtd, slotsPer, nil
}

// GTDUsable reports whether a GTD checkpoint can serve this configuration:
// the map must be paged with the same translation-page geometry. Anything
// else falls back to the full scan, which rebuilds every layout from data
// headers; the next checkpoint is written for the current geometry.
func (l *Log) GTDUsable(slotsPer int) bool {
	return l.cfg.MapCachePages != 0 && slotsPer == mapcache.SlotsFor(l.cfg.Nand.SectorSize)
}

// SegRecord is one used segment's identity at serialization time.
type SegRecord struct {
	Seg    int
	Erases int
	Prog   int
	MaxSeq uint64
}

// SegRecordSize is the encoded size of a SegRecord.
const SegRecordSize = 20

// EncodeSegRecord appends seg's current identity to a segment table.
func (l *Log) EncodeSegRecord(w *codec.Writer, seg int) {
	w.U32(uint32(seg))
	w.U32(uint32(l.Dev.EraseCount(seg)))
	w.U32(uint32(l.Dev.NextFreeInSegment(seg)))
	w.U64(l.SegLastSeq[seg])
}

// DecodeSegRecord reads what EncodeSegRecord wrote.
func DecodeSegRecord(r *codec.Reader) SegRecord {
	return SegRecord{Seg: int(r.U32()), Erases: int(r.U32()), Prog: int(r.U32()), MaxSeq: r.U64()}
}

// CheckSegTable decides whether a checkpoint's segment table still
// describes the device, returning the recorded segments by index. ok=false
// means a recorded segment was erased, retired, or rewound since
// serialization — the cleaner moved pre-cut-off blocks, so the generation
// is stale and recovery must fall back to the full scan.
func CheckSegTable(dev *nand.Device, table []SegRecord) (recorded map[int]SegRecord, ok bool) {
	recorded = make(map[int]SegRecord, len(table))
	for _, rec := range table {
		if rec.Seg < 0 || rec.Seg >= dev.Config().Segments {
			return nil, false
		}
		if dev.SegmentHealth(rec.Seg) == nand.Retired {
			return nil, false
		}
		if dev.EraseCount(rec.Seg) != rec.Erases {
			return nil, false
		}
		if dev.NextFreeInSegment(rec.Seg) < rec.Prog {
			return nil, false
		}
		recorded[rec.Seg] = rec
	}
	return recorded, true
}
