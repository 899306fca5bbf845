package iosnap

import (
	"errors"
	"fmt"
	"sort"

	"iosnap/internal/blockdev"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// Snapshot replication (ROADMAP item 3, the paper's §7 destaging future
// work): ship a snapshot — or the delta between two snapshots — to another
// block device through the content-addressed transport in internal/xport.
//
// The sender side needs no activation. A snapshot's frozen epoch map IS its
// image (the same oracle activation uses: a page belongs to the snapshot
// iff its bit is set in the frozen epoch), so the delta between two
// snapshots is the pure bitmap comparison of their two epochs:
//
//	changed  = valid(target) AND NOT valid(base)   → ship these pages
//	obsolete = valid(base)  AND NOT valid(target)  → their LBAs, minus the
//	           changed set's LBAs, were trimmed — the delta's Deletes
//
// Comparing full epoch maps (each inherits its ancestors' CoW pages) means
// the base may be ANY live snapshot, not just an ancestor, and snapshots
// deleted between base and target cost nothing: their pages stay testable
// through inheritance.
//
// Export runs as an incremental job while foreground I/O continues — the
// only global stall is the freeze that created the snapshot. It is
// activation's log scan, driven for a delta by the pages valid in exactly
// one of the two epochs, so it takes the scan's quanta, rate limit, cleaner
// re-points and classification; after the scan each quantum claims the
// device for one batched chunk read, and between quanta the cleaner is free
// to move blocks.

// ErrBadExport reports an export that cannot be produced at all (the
// device retains no payloads to ship).
var ErrBadExport = errors.New("iosnap: malformed export stream")

// ErrExportAborted is the terminal error of a cancelled or invalidated
// export (e.g. its snapshot was deleted mid-export).
var ErrExportAborted = errors.New("iosnap: export aborted")

// ErrReplicaMismatch reports a destination device whose geometry cannot
// hold the manifest's image.
var ErrReplicaMismatch = errors.New("iosnap: replica device mismatch")

// ErrReplicaDiverged reports a replica whose own content at a deduplicated
// LBA no longer matches its committed generation. The stream left that
// chunk out, so re-sending the same stream fails the same way
// (xport.Retryable is false); a stream that ships the chunk repairs it.
var ErrReplicaDiverged = errors.New("iosnap: replica content diverged from its generation")

// ExportOpts parameterizes BeginExport.
type ExportOpts struct {
	// Snapshot is the target snapshot to export.
	Snapshot SnapshotID
	// Base, when non-zero, selects incremental export: only the pages that
	// changed between Base's image and Snapshot's image are shipped, plus
	// the trimmed LBAs. Base must be a live (undeleted) snapshot — the
	// cleaner only maintains validity bits of live epochs.
	Base SnapshotID
	// BaseManifestID is stamped into the delta manifest as the generation
	// the receiver must currently hold (xport.Manifest.BaseID). Zero with a
	// non-zero Base produces a delta no receiver will accept; the
	// Replicator wires this automatically.
	BaseManifestID uint64
	// Have, when non-nil, is the receiver's dedup oracle: it reports
	// whether the receiver can already materialize (lba, hash) locally.
	// Chunks it claims are listed in the manifest but not shipped.
	Have func(lba, hash uint64) bool
	// Limit rate-limits the export's scan and read steps (zero =
	// unthrottled), like activation's rate limit.
	Limit ratelimit.WorkSleep
}

// exportChunk is the export's read queue depth: how many block reads one
// step posts to the device as a batch.
const exportChunk = 256

// Export is an in-progress (or finished) snapshot export: the log scan over
// the target's epoch and the base's, then batched reads of the pages to ship
// and the stream's assembly. It implements sim.Task, so it can run on the
// scheduler while foreground I/O continues, or be pumped synchronously via
// ExportSync.
type Export struct {
	*scan
	snap *Snapshot
	base *Snapshot // nil = full image
	opt  ExportOpts

	readIdx int               // entries of sorted read so far
	entries []xport.Entry     // manifest writes, ascending lba
	chunks  map[uint64][]byte // shipped payload copies
	deduped int64

	manifest *xport.Manifest
	stream   []byte
}

// Name implements sim.Task.
func (x *Export) Name() string { return fmt.Sprintf("export(snap %d)", x.snap.ID) }

// Done reports whether the export finished (successfully or not).
func (x *Export) Done() bool { return x.done }

// Result returns the manifest and assembled transfer stream once Done.
func (x *Export) Result() (*xport.Manifest, []byte, error) {
	if !x.done {
		return nil, nil, ErrNotReady
	}
	if x.err != nil {
		return nil, nil, x.err
	}
	return x.manifest, x.stream, nil
}

// BeginExport starts exporting a snapshot. The diff itself is a host-side
// bitmap comparison (no device time); the device work — header scans to
// resolve LBAs, batched reads to hash and ship payloads — happens in Run
// steps that interleave with foreground I/O.
func (f *FTL) BeginExport(now sim.Time, opt ExportOpts) (*Export, sim.Time, error) {
	if f.Closed() {
		return nil, now, ErrClosed
	}
	if !f.cfg.Nand.StoreData {
		return nil, now, fmt.Errorf("%w: device retains no payloads (fingerprint mode)", ErrBadExport)
	}
	snap, err := f.tree.find(opt.Snapshot)
	if err != nil {
		return nil, now, err
	}
	x := &Export{snap: snap, opt: opt, chunks: make(map[uint64][]byte)}
	if opt.Base == 0 {
		x.scan = f.beginScan(opt.Limit, snap.Epoch, 0, false)
		return x, now, nil
	}
	if x.base, err = f.tree.find(opt.Base); err != nil {
		return nil, now, fmt.Errorf("export base: %w", err)
	}
	x.scan = f.beginScan(opt.Limit, snap.Epoch, x.base.Epoch, true)
	return x, now, nil
}

// invalidated reports whether a snapshot the export depends on was deleted
// mid-export (the cleaner stops maintaining deleted epochs' bits, so the
// diff can no longer be trusted).
func (x *Export) invalidated() bool {
	return x.snap.Deleted || (x.base != nil && x.base.Deleted)
}

// Run implements sim.Task: one rate-limited quantum — segment scans while
// scanning, then one batched chunk read, then stream assembly.
func (x *Export) Run(now sim.Time) (sim.Time, bool) {
	if x.done {
		return 0, true
	}
	f := x.f
	if x.invalidated() {
		return x.fail(now, fmt.Errorf("%w: snapshot deleted mid-export", ErrExportAborted))
	}
	now, yield, err := x.step(now)
	if err != nil {
		return x.fail(now, err)
	}
	if yield {
		return now, false
	}
	if !x.sortedBuilt {
		x.finishScan(x.classify)
	}

	// Read, hash, and (unless the receiver already has the content) retain
	// one batch of pages. The cleaner keeps the addresses in sorted current.
	if x.readIdx < len(x.sorted) {
		start := now
		batch := x.sorted[x.readIdx:min(x.readIdx+exportChunk, len(x.sorted))]
		addrs := make([]nand.PageAddr, len(batch))
		for i, e := range batch {
			addrs[i] = nand.PageAddr(e.Val)
		}
		datas, _, k, done, err := f.DevReadPages(now, addrs)
		now = done
		for i := 0; i < k; i++ {
			lba := batch[i].Key
			hash := xport.HashChunk(datas[i])
			x.entries = append(x.entries, xport.Entry{LBA: lba, Hash: hash})
			if x.opt.Have != nil && x.opt.Have(lba, hash) {
				x.deduped++
			} else {
				x.chunks[lba] = append([]byte(nil), datas[i]...)
			}
		}
		if err != nil {
			failed := batch[min(k, len(batch)-1)].Key
			return x.fail(now, fmt.Errorf("iosnap: export read of LBA %d: %w", failed, err))
		}
		x.readIdx += k
		if sleep, exhausted := x.budget.Charge(now.Sub(start)); exhausted {
			return now.Add(sleep), false
		}
		if x.readIdx < len(x.sorted) {
			return now, false
		}
	}

	// Assemble manifest and stream (host-side only).
	m := &xport.Manifest{
		SnapID:     uint64(x.snap.ID),
		BaseID:     x.opt.BaseManifestID,
		SectorSize: f.cfg.Nand.SectorSize,
		Sectors:    f.cfg.UserSectors,
		Writes:     x.entries,
		Deletes:    x.deletes,
	}
	if x.base != nil {
		m.BaseSnapID = uint64(x.base.ID)
	}
	w := xport.NewStreamWriter(m)
	var shipped int64
	for _, e := range x.entries {
		if data, ok := x.chunks[e.LBA]; ok {
			w.AddChunk(e.LBA, data)
			shipped++
		}
	}
	x.manifest = m
	x.stream = w.Close()
	f.stats.ExportChunks += shipped
	f.stats.ExportDedupHits += x.deduped
	x.end(now, nil)
	return now, true
}

// Cancel aborts an in-flight export.
func (x *Export) Cancel(now sim.Time) error {
	if x.done {
		return x.err
	}
	x.end(now, ErrExportAborted)
	return nil
}

// ExportSync runs an export to completion, returning the manifest and the
// transfer stream. Foreground concurrency is the caller's choice: use
// BeginExport + Run (or the scheduler) to interleave.
func (f *FTL) ExportSync(now sim.Time, opt ExportOpts) (*xport.Manifest, []byte, sim.Time, error) {
	x, t, err := f.BeginExport(now, opt)
	if err != nil {
		return nil, nil, now, err
	}
	t = runToEnd(x, t)
	if x.err != nil {
		return nil, nil, t, x.err
	}
	return x.manifest, x.stream, x.completedAt, nil
}

// Replica is a destination a transfer stream is applied to: a block
// device that trims, so a clear programs nothing.
type Replica interface {
	blockdev.Device
	blockdev.Trimmer
}

// Receipt summarizes one ReceiveInto call.
type Receipt struct {
	Manifest *xport.Manifest
	Applied  int // chunk writes performed
	Deduped  int // entries materialized from local base content
}

// ReceiveInto applies a transfer stream to dst, whose current generation
// is base (nil for a bare destination; a delta needs the base it names).
// The stream is validated end to end BEFORE the device is touched — a
// truncated, reordered-into-garbage, or bit-flipped stream fails with no
// mutation. The apply itself is idempotent: re-applying the same stream
// over a partly applied one reads, clears and writes the same sectors to
// the same content, so a failed apply is repaired by applying again.
// Durability is the caller's: a replica is committed by saving it whole.
func ReceiveInto(dst Replica, now sim.Time, stream []byte, base *xport.Manifest) (*Receipt, sim.Time, error) {
	// ---- Validation pass: no device mutation below until it finishes. ----
	m, shipped, err := scanStream(stream)
	if err != nil {
		return nil, now, err
	}
	if m.SectorSize != dst.SectorSize() || m.Sectors > dst.Sectors() {
		return nil, now, fmt.Errorf("%w: manifest %d×%d vs device %d×%d",
			ErrReplicaMismatch, m.Sectors, m.SectorSize, dst.Sectors(), dst.SectorSize())
	}
	if m.IsDelta() {
		if base == nil {
			return nil, now, fmt.Errorf("%w: delta received on a bare destination", xport.ErrBaseMismatch)
		}
		if base.ID() != m.BaseID {
			return nil, now, fmt.Errorf("%w: delta base %#x, destination holds %#x",
				xport.ErrBaseMismatch, m.BaseID, base.ID())
		}
	}
	rec := &Receipt{Manifest: m}

	// ---- Dedup phase: verify locally-materialized entries first, while
	// their source sectors are untouched by this apply. A deduplicated
	// entry's content already sits at the SAME lba (the oracle only claims
	// same-lba matches), so this phase reads and hashes without writing. ----
	buf := make([]byte, m.SectorSize)
	for _, e := range m.Writes {
		if _, isShipped := shipped[e.LBA]; isShipped {
			continue
		}
		be, ok := xport.Entry{}, false
		if base != nil {
			be, ok = base.Find(e.LBA)
		}
		if !ok || be.Hash != e.Hash {
			return nil, now, fmt.Errorf("%w: no chunk and no local content for LBA %d", xport.ErrTruncated, e.LBA)
		}
		done, err := dst.Read(now, int64(e.LBA), buf)
		if err != nil {
			return nil, now, fmt.Errorf("iosnap: dedup read of LBA %d: %w", e.LBA, err)
		}
		now = done
		if xport.HashChunk(buf) != e.Hash {
			return nil, now, fmt.Errorf("%w: local content for LBA %d", ErrReplicaDiverged, e.LBA)
		}
		rec.Deduped++
	}

	// ---- Clear phase: a delta trims its Deletes; a full image trims every
	// sector the manifest does not define, so the finished replica equals
	// the image exactly — not the image layered over stale sectors. ----
	trim := func(lba, n int64) error {
		done, err := dst.Trim(now, lba, n)
		if err != nil {
			return fmt.Errorf("iosnap: clearing [%d,%d): %w", lba, lba+n, err)
		}
		now = done
		return nil
	}
	if m.IsDelta() {
		for _, lba := range m.Deletes {
			if err := trim(int64(lba), 1); err != nil {
				return nil, now, err
			}
		}
	} else {
		var next int64
		for _, e := range m.Writes {
			if int64(e.LBA) > next {
				if err := trim(next, int64(e.LBA)-next); err != nil {
					return nil, now, err
				}
			}
			next = int64(e.LBA) + 1
		}
		if next < m.Sectors {
			if err := trim(next, m.Sectors-next); err != nil {
				return nil, now, err
			}
		}
	}

	// ---- Apply phase: shipped chunks land in ascending LBA order; every
	// write is hash-verified bytes (VerifyChunk ran in the validation
	// pass). ----
	order := make([]uint64, 0, len(shipped))
	for lba := range shipped {
		order = append(order, lba)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	for _, lba := range order {
		done, err := dst.Write(now, int64(lba), shipped[lba])
		if err != nil {
			return nil, now, fmt.Errorf("iosnap: applying LBA %d: %w", lba, err)
		}
		now = done
		rec.Applied++
	}
	return rec, now, nil
}

// scanStream validates every frame of a transfer stream and returns the
// manifest plus the shipped chunks (lba -> payload, aliasing stream).
func scanStream(stream []byte) (*xport.Manifest, map[uint64][]byte, error) {
	s := xport.NewScanner(stream)
	if !s.More() {
		return nil, nil, fmt.Errorf("%w: empty stream", xport.ErrTruncated)
	}
	first, err := s.Next()
	if err != nil {
		return nil, nil, err
	}
	if first.Type != xport.FrameManifest {
		return nil, nil, fmt.Errorf("%w: stream does not start with a manifest", xport.ErrBadStream)
	}
	m := first.Manifest
	id := m.ID()
	shipped := make(map[uint64][]byte)
	sawEnd := false
	for s.More() {
		if sawEnd {
			return nil, nil, fmt.Errorf("%w: frames after the end frame", xport.ErrBadStream)
		}
		f, err := s.Next()
		if err != nil {
			return nil, nil, err
		}
		switch f.Type {
		case xport.FrameChunk:
			if err := xport.VerifyChunk(m, id, f); err != nil {
				return nil, nil, err
			}
			if _, dup := shipped[f.LBA]; dup {
				return nil, nil, fmt.Errorf("%w: duplicate chunk for LBA %d", xport.ErrBadStream, f.LBA)
			}
			shipped[f.LBA] = f.Data
		case xport.FrameEnd:
			if f.TransferID != id {
				return nil, nil, fmt.Errorf("%w: end frame tagged %#x", xport.ErrWrongTransfer, f.TransferID)
			}
			if f.Chunks != uint64(len(shipped)) {
				return nil, nil, fmt.Errorf("%w: end frame promises %d chunks, stream carries %d",
					xport.ErrTruncated, f.Chunks, len(shipped))
			}
			sawEnd = true
		default:
			return nil, nil, fmt.Errorf("%w: unexpected frame type %d", xport.ErrBadStream, f.Type)
		}
	}
	if !sawEnd {
		return nil, nil, fmt.Errorf("%w: no end frame", xport.ErrTruncated)
	}
	return m, shipped, nil
}

// VerifyReplica re-reads every sector the manifest defines from dst and
// hashes it against the manifest; delta Deletes are checked to read as
// zeros. It returns the mismatching LBAs (read errors count as mismatches:
// either way the sector's content cannot be trusted).
func VerifyReplica(dst blockdev.Device, now sim.Time, m *xport.Manifest) (mismatches []uint64, done sim.Time, err error) {
	if m.SectorSize != dst.SectorSize() {
		return nil, now, fmt.Errorf("%w: manifest sector %d vs device %d",
			ErrReplicaMismatch, m.SectorSize, dst.SectorSize())
	}
	buf := make([]byte, m.SectorSize)
	for _, e := range m.Writes {
		d, rerr := dst.Read(now, int64(e.LBA), buf)
		if rerr != nil {
			mismatches = append(mismatches, e.LBA)
			continue
		}
		now = d
		if xport.HashChunk(buf) != e.Hash {
			mismatches = append(mismatches, e.LBA)
		}
	}
	zero := xport.HashChunk(make([]byte, m.SectorSize))
	for _, lba := range m.Deletes {
		d, rerr := dst.Read(now, int64(lba), buf)
		if rerr != nil {
			mismatches = append(mismatches, lba)
			continue
		}
		now = d
		if xport.HashChunk(buf) != zero {
			mismatches = append(mismatches, lba)
		}
	}
	return mismatches, now, nil
}

// Replicator drives end-to-end replication from a source FTL to a
// destination device: export, transfer (with optional injected stream
// damage), receive, verify, and bounded retry. It tracks the destination's
// committed generation so successive calls replicate incrementally and
// deduplicate unchanged content.
type Replicator struct {
	Src *FTL
	Dst Replica
	// Policy bounds the receive/verify retry loop (zero = single attempt).
	Policy retry.Policy
	// Limit rate-limits the export job.
	Limit ratelimit.WorkSleep
	// Mangle, when non-nil, damages the wire per attempt — the stream
	// fault-injection hook (attempt is 1-based; return the stream
	// unmodified to stop injecting).
	Mangle func(attempt int, stream []byte) []byte

	gen *xport.Manifest
}

// Generation returns the destination's committed generation manifest (nil
// before the first successful replication).
func (r *Replicator) Generation() *xport.Manifest { return r.gen }

// Restore installs a previously committed generation — the CLI's path to
// replicating incrementally across process restarts.
func (r *Replicator) Restore(gen *xport.Manifest) { r.gen = gen }

// Replicate ships snapshot snap to the destination. With base != 0 (and a
// committed generation present) the transfer is incremental; otherwise a
// full image. Returns the committed manifest.
//
// Failure semantics: stream-shape damage (truncation, bit flips, chunk
// hash mismatches) and verify failures are retried within Policy's budget,
// each attempt applying the whole stream again. A replica whose own copy of
// a deduplicated chunk diverged (ErrReplicaDiverged) is retried too, with
// the snapshot exported again without dedup, so every chunk ships. Errors
// that survive the budget — and non-retryable errors — leave the committed
// generation unchanged.
func (r *Replicator) Replicate(now sim.Time, snap, base SnapshotID) (*xport.Manifest, sim.Time, error) {
	opt := ExportOpts{Snapshot: snap, Base: base, Limit: r.Limit}
	if base != 0 {
		if r.gen == nil {
			return nil, now, fmt.Errorf("%w: incremental replicate with no committed generation", xport.ErrBaseMismatch)
		}
		opt.BaseManifestID = r.gen.ID()
	}
	if r.gen != nil {
		g := r.gen
		opt.Have = func(lba, hash uint64) bool {
			e, ok := g.Find(lba)
			return ok && e.Hash == hash
		}
	}
	m, stream, done, err := r.Src.ExportSync(now, opt)
	if err != nil {
		return nil, now, err
	}
	now = done

	attempt, diverged := 0, false
	retryable := func(err error) bool { return xport.Retryable(err) || errors.Is(err, ErrReplicaDiverged) }
	done, retries, err := r.Policy.Do(now, retryable, func(at sim.Time) (sim.Time, error) {
		attempt++
		if diverged {
			diverged, opt.Have = false, nil
			var err error
			if m, stream, at, err = r.Src.ExportSync(at, opt); err != nil {
				return at, err
			}
		}
		wire := stream
		if r.Mangle != nil {
			wire = r.Mangle(attempt, wire)
		}
		_, d, err := ReceiveInto(r.Dst, at, wire, r.gen)
		if err != nil {
			diverged = errors.Is(err, ErrReplicaDiverged)
			return d, err
		}
		mism, d, err := VerifyReplica(r.Dst, d, m)
		if err != nil {
			return d, err
		}
		if len(mism) > 0 {
			r.Src.stats.VerifyMismatches += int64(len(mism))
			return d, fmt.Errorf("%w: %d sectors failed verification", xport.ErrHashMismatch, len(mism))
		}
		return d, nil
	})
	r.Src.stats.ImportRetries += retries
	if err != nil {
		return nil, done, err
	}
	r.gen = m
	return m, done, nil
}
