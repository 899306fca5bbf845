package iosnap

import (
	"bytes"
	"errors"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// replPair builds a source FTL with lbas written at version 1 plus a
// blank destination FTL of identical geometry, and returns the image
// written so far.
func replPair(t *testing.T, lbas []int64) (src, dst *FTL, want *model.Image, now sim.Time) {
	t.Helper()
	src = newTestFTL(t)
	dst = newTestFTL(t)
	want = model.NewImage()
	for _, lba := range lbas {
		now = writeVersion(t, src, want, now, lba, 1)
	}
	return src, dst, want, now
}

// writeVersion writes version v of lba to f, records it in im, and returns
// the completion time.
func writeVersion(t *testing.T, f *FTL, im *model.Image, now sim.Time, lba int64, v uint64) sim.Time {
	t.Helper()
	d, err := f.Write(now, lba, model.Sectors(f.SectorSize(), lba, 1, v))
	if err != nil {
		t.Fatalf("write lba %d: %v", lba, err)
	}
	im.Write(lba, v)
	return d
}

// checkReplica asserts dst holds exactly the expected image: every
// written sector at its version, every other sector zero.
func checkReplica(t *testing.T, dst *FTL, want *model.Image) {
	t.Helper()
	buf := make([]byte, dst.SectorSize())
	for lba := int64(0); lba < dst.Sectors(); lba++ {
		if _, err := dst.Read(0, lba, buf); err != nil {
			t.Fatalf("replica read lba %d: %v", lba, err)
		}
		if !model.Check(buf, lba, want.Version(lba)) {
			t.Fatalf("replica lba %d does not hold version %d", lba, want.Version(lba))
		}
	}
}

func TestFullReplicateBitIdentical(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 7, 40, 41, 99})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite after the snapshot: the export must ship the frozen image,
	// not the live one.
	ss := src.SectorSize()
	if now, err = src.Write(now, 7, sectorPattern(ss, 7, 9)); err != nil {
		t.Fatal(err)
	}

	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	m, now, err := r.Replicate(now, snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsDelta() {
		t.Fatal("first replication must be a full image")
	}
	if len(m.Writes) != len(want.LBAs()) {
		t.Fatalf("manifest defines %d sectors, want %d", len(m.Writes), len(want.LBAs()))
	}
	checkReplica(t, dst, want)
	// Sectors outside the image were cleared by trim, not written as zeros.
	if dst.MappedSectors() != len(want.LBAs()) {
		t.Fatalf("destination maps %d sectors, want %d", dst.MappedSectors(), len(want.LBAs()))
	}

	mism, _, err := VerifyReplica(dst, now, m)
	if err != nil || len(mism) != 0 {
		t.Fatalf("verify: mismatches %v, err %v", mism, err)
	}
	if got := src.Stats().ExportChunks; got != int64(len(want.LBAs())) {
		t.Fatalf("ExportChunks = %d, want %d", got, len(want.LBAs()))
	}
	if r.Generation() == nil || r.Generation().ID() != m.ID() {
		t.Fatal("replicator did not commit the generation")
	}
}

func TestIncrementalShipsOnlyTheDelta(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 31})
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	if _, now, err = r.Replicate(now, s1.ID, 0); err != nil {
		t.Fatal(err)
	}
	fullChunks := src.Stats().ExportChunks

	// Change two sectors, add one, trim one; freeze the next generation.
	for _, lba := range []int64{3, 7, 55} {
		now = writeVersion(t, src, want, now, lba, 2)
	}
	if now, err = src.Trim(now, 30, 1); err != nil {
		t.Fatal(err)
	}
	want.Trim(30)
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}

	m, now, err := r.Replicate(now, s2.ID, s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsDelta() {
		t.Fatal("base-relative replication must produce a delta")
	}
	deltaChunks := src.Stats().ExportChunks - fullChunks
	if deltaChunks != 3 {
		t.Fatalf("delta shipped %d chunks, want 3 (changed 3/7, new 55)", deltaChunks)
	}
	if deltaChunks >= fullChunks {
		t.Fatalf("incremental (%d) must ship fewer chunks than full (%d)", deltaChunks, fullChunks)
	}
	if len(m.Deletes) != 1 || m.Deletes[0] != 30 {
		t.Fatalf("delta deletes %v, want [30]", m.Deletes)
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify: %v, %v", mism, err)
	}
}

func TestDedupSkipsUnchangedContent(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7})
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	if _, now, err = r.Replicate(now, s1.ID, 0); err != nil {
		t.Fatal(err)
	}

	// Rewrite one sector with DIFFERENT bytes and snapshot again: a full
	// (non-delta) replication of s2 still only ships that one chunk — the
	// committed generation dedups every unchanged sector.
	now = writeVersion(t, src, want, now, 4, 2)
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	before := src.Stats()
	m, _, err := r.Replicate(now, s2.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := src.Stats()
	if shipped := after.ExportChunks - before.ExportChunks; shipped != 1 {
		t.Fatalf("full-with-dedup shipped %d chunks, want 1", shipped)
	}
	if hits := after.ExportDedupHits - before.ExportDedupHits; hits != int64(len(want.LBAs())-1) {
		t.Fatalf("dedup hits = %d, want %d", hits, len(want.LBAs())-1)
	}
	if m.IsDelta() {
		t.Fatal("base=0 replication must still be a full manifest")
	}
	checkReplica(t, dst, want)
}

// failingReplica passes its first ok writes to the FTL and fails every
// one after: a receiving host whose disk fills mid-apply.
type failingReplica struct {
	*FTL
	ok int
}

var errReplicaFull = errors.New("replica full")

func (d *failingReplica) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	if d.ok == 0 {
		return now, errReplicaFull
	}
	d.ok--
	return d.FTL.Write(now, lba, data)
}

// TestInterruptedReceiveReapplies: an apply that fails part way leaves a
// half-changed replica, and applying the same stream again from the start
// finishes it. The delta dedups, trims and ships, so the second apply
// re-reads dedup content past a partly written image, trims again and
// rewrites the chunks that already landed.
func TestInterruptedReceiveReapplies(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	gen1, full, now, err := src.ExportSync(now, ExportOpts{Snapshot: s1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = ReceiveInto(dst, now, full, nil); err != nil {
		t.Fatal(err)
	}
	for _, lba := range []int64{2, 5, 8, 40} {
		now = writeVersion(t, src, want, now, lba, 2)
	}
	if now, err = src.Trim(now, 6, 1); err != nil {
		t.Fatal(err)
	}
	want.Trim(6)
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	have := func(lba, hash uint64) bool { e, ok := gen1.Find(lba); return ok && e.Hash == hash }
	m, delta, now, err := src.ExportSync(now, ExportOpts{Snapshot: s2.ID, Base: s1.ID, BaseManifestID: gen1.ID(), Have: have})
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := ReceiveInto(&failingReplica{FTL: dst, ok: 2}, now, delta, gen1); !errors.Is(err, errReplicaFull) {
		t.Fatalf("interrupted receive returned %v, want the write failure", err)
	}
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) == 0 {
		t.Fatalf("the interrupted receive left a replica that verifies (%v): nothing was interrupted", err)
	}
	rec, now, err := ReceiveInto(dst, now, delta, gen1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Applied != 4 || rec.Deduped != len(m.Writes)-4 {
		t.Fatalf("re-apply wrote %d chunks and deduped %d, want 4 and %d", rec.Applied, rec.Deduped, len(m.Writes)-4)
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify after re-apply: %v, %v", mism, err)
	}
}

func TestDamagedStreamFailsAtomically(t *testing.T) {
	src, dst, _, now := replPair(t, []int64{0, 1, 2, 3, 4})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the destination with a sentinel the receive must not disturb.
	ss := dst.SectorSize()
	sentinel := sectorPattern(ss, 2, 77)
	if now, err = dst.Write(now, 2, sentinel); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }, xport.ErrTruncated},
		{"bit-flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x20
			return c
		}, xport.ErrBadChecksum},
		{"empty", func(b []byte) []byte { return nil }, xport.ErrTruncated},
	}
	for _, tc := range cases {
		_, _, err := ReceiveInto(dst, now, tc.mangle(stream), nil)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if !xport.Retryable(err) {
			t.Fatalf("%s: stream damage must be retryable", tc.name)
		}
		buf := make([]byte, ss)
		if _, err := dst.Read(now, 2, buf); err != nil || !bytes.Equal(buf, sentinel) {
			t.Fatalf("%s: rejected stream mutated the destination", tc.name)
		}
	}
}

// TestImportRejectsGarbage: bytes that are no transfer stream at all are
// refused, as retryable stream damage, before the destination is touched.
func TestImportRejectsGarbage(t *testing.T) {
	dst := newTestFTL(t)
	for _, tc := range []struct {
		junk []byte
		want error
	}{
		{[]byte("junk"), xport.ErrTruncated},
		{bytes.Repeat([]byte("not a transfer stream "), 4), xport.ErrBadStream},
	} {
		if _, _, err := ReceiveInto(dst, 0, tc.junk, nil); !errors.Is(err, tc.want) || !xport.Retryable(err) {
			t.Fatalf("%d junk bytes: got %v, want %v", len(tc.junk), err, tc.want)
		}
	}
	if dst.MappedSectors() != 0 || dst.Stats().Trims != 0 {
		t.Fatal("a refused stream touched the destination")
	}
}

// TestImportSectorSizeMismatch: a destination whose geometry cannot hold
// the manifest's image is refused untouched, by the receive and by verify.
func TestImportSectorSizeMismatch(t *testing.T) {
	src, _, _, now := replPair(t, []int64{0, 1, 2})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	m, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	small := testConfig()
	small.Nand.SectorSize = 256
	small.Nand.PagesPerSegment = 32
	fewer := testConfig()
	fewer.UserSectors = src.Sectors() / 2
	for name, cfg := range map[string]Config{"smaller sectors": small, "fewer sectors": fewer} {
		dst, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReceiveInto(dst, now, stream, nil); !errors.Is(err, ErrReplicaMismatch) {
			t.Fatalf("%s: receive got %v, want ErrReplicaMismatch", name, err)
		}
		if dst.MappedSectors() != 0 {
			t.Fatalf("%s: refused receive wrote to the destination", name)
		}
		if name == "smaller sectors" {
			if _, _, err := VerifyReplica(dst, now, m); !errors.Is(err, ErrReplicaMismatch) {
				t.Fatalf("%s: verify got %v, want ErrReplicaMismatch", name, err)
			}
		}
	}
}

func TestReplicatorRetriesWireDamage(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{
		Src:    src,
		Dst:    dst,
		Policy: retry.Policy{MaxAttempts: 4, Backoff: 100 * sim.Microsecond},
		// Attempt 1 arrives truncated, attempt 2 bit-flipped, attempt 3 clean.
		Mangle: func(attempt int, stream []byte) []byte {
			switch attempt {
			case 1:
				return stream[:len(stream)-20]
			case 2:
				c := append([]byte(nil), stream...)
				c[len(c)-30] ^= 0x01
				return c
			}
			return stream
		},
	}
	m, now, err := r.Replicate(now, snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Stats().ImportRetries; got != 2 {
		t.Fatalf("ImportRetries = %d, want 2", got)
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify after retries: %v, %v", mism, err)
	}
}

func TestTransientNANDDuringExport(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Transient read faults plus a read-side corruption during the export's
	// payload reads: the media retry layer absorbs both.
	plan := faultinject.NewPlan(3,
		faultinject.Rule{Kind: faultinject.KindTransient, Op: nand.OpRead, Seg: faultinject.AnySeg, AfterN: 2, Times: 1},
		faultinject.Rule{Kind: faultinject.KindCorruptData, Op: nand.OpRead, Seg: faultinject.AnySeg, AfterN: 4, Times: 1})
	plan.Arm(src.Device())
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	m, now, err := r.Replicate(now, snap.ID, 0)
	plan.Disarm(src.Device())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Fired()) == 0 {
		t.Fatal("plan never fired — test exercised nothing")
	}
	if src.Stats().Retries == 0 {
		t.Fatal("expected media retries during export")
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify: %v, %v", mism, err)
	}
}

func TestVerifyRepairAfterDestinationCorruption(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// One of the receive's programs on the DESTINATION persists corrupted
	// bytes (detected on every read until the sector is rewritten). The
	// post-receive verify flags it; the repair pass re-applies exactly that
	// sector from the stream, landing on a fresh page.
	plan := faultinject.CorruptNth(nand.OpProgram, 3)
	plan.Arm(dst.Device())
	r := &Replicator{
		Src:    src,
		Dst:    dst,
		Policy: retry.Policy{MaxAttempts: 3, Backoff: 100 * sim.Microsecond},
	}
	m, now, err := r.Replicate(now, snap.ID, 0)
	plan.Disarm(dst.Device())
	if err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.VerifyMismatches == 0 {
		t.Fatal("expected the corrupted sector to fail verification once")
	}
	if st.ImportRetries == 0 {
		t.Fatal("expected a repair attempt")
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("repaired replica must verify clean: %v, %v", mism, err)
	}
}

func TestExportWhileForegroundWritesContinue(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	x, now, err := src.BeginExport(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave overwrites with export steps: one foreground write per
	// export quantum, touching sectors the snapshot covers.
	ss := src.SectorSize()
	lba := int64(0)
	for !x.Done() {
		next, fin := x.Run(now)
		if fin {
			break
		}
		if next > now {
			now = next
		}
		if now, err = src.Write(now, lba%10, sectorPattern(ss, lba%10, 5)); err != nil {
			t.Fatal(err)
		}
		lba++
	}
	if lba == 0 {
		t.Fatal("export finished in one quantum — nothing interleaved")
	}
	_, stream, err := x.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = ReceiveInto(dst, now, stream, nil); err != nil {
		t.Fatal(err)
	}
	// The replica must equal the FROZEN image (version 1), untouched by the
	// interleaved version-5 writes.
	checkReplica(t, dst, want)
}

func TestExportGuards(t *testing.T) {
	now := sim.Time(0)

	t.Run("fingerprint mode", func(t *testing.T) {
		cfg := testConfig()
		cfg.Nand.StoreData = false
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.Write(now, 1, make([]byte, f.SectorSize()))
		if err != nil {
			t.Fatal(err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID}); !errors.Is(err, ErrBadExport) {
			t.Fatalf("fingerprint-mode export: got %v, want ErrBadExport", err)
		}
	})

	t.Run("unknown and deleted snapshots", func(t *testing.T) {
		f := newTestFTL(t)
		d, err := f.Write(now, 1, make([]byte, f.SectorSize()))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: 42}); !errors.Is(err, ErrNoSuchSnapshot) {
			t.Fatalf("unknown snapshot: %v", err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		s2, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		if d, err = f.DeleteSnapshot(d, snap.ID); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID}); !errors.Is(err, ErrSnapshotDeleted) {
			t.Fatalf("deleted snapshot: %v", err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: s2.ID, Base: snap.ID}); !errors.Is(err, ErrSnapshotDeleted) {
			t.Fatalf("deleted base: %v", err)
		}
	})

	t.Run("deleted mid-export", func(t *testing.T) {
		f := newTestFTL(t)
		d, err := f.Write(now, 1, sectorPattern(f.SectorSize(), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		x, d, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID})
		if err != nil {
			t.Fatal(err)
		}
		if d, err = f.DeleteSnapshot(d, snap.ID); err != nil {
			t.Fatal(err)
		}
		for !x.Done() {
			var fin bool
			d, fin = x.Run(d)
			if fin {
				break
			}
		}
		if !errors.Is(x.Err(), ErrExportAborted) {
			t.Fatalf("mid-export deletion: got %v, want ErrExportAborted", x.Err())
		}
		if len(f.scans) != 0 {
			t.Fatal("failed export must deregister itself")
		}
	})

	t.Run("cancel", func(t *testing.T) {
		f := newTestFTL(t)
		d, err := f.Write(now, 1, sectorPattern(f.SectorSize(), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		x, d, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID})
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Cancel(d); err != nil {
			t.Fatal(err)
		}
		if !x.Done() || !errors.Is(x.Err(), ErrExportAborted) || len(f.scans) != 0 {
			t.Fatalf("cancel: done %v err %v exports %d", x.Done(), x.Err(), len(f.scans))
		}
	})
}

func TestDeltaRequiresMatchingBase(t *testing.T) {
	src, dst, _, now := replPair(t, []int64{0, 1, 2, 3})
	ss := src.SectorSize()
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = src.Write(now, 2, sectorPattern(ss, 2, 2)); err != nil {
		t.Fatal(err)
	}
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Export the delta with a bogus receiver-generation stamp.
	_, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: s2.ID, Base: s1.ID, BaseManifestID: 0xDEAD})
	if err != nil {
		t.Fatal(err)
	}
	// Bare destination: refused.
	if _, _, err := ReceiveInto(dst, now, stream, nil); !errors.Is(err, xport.ErrBaseMismatch) {
		t.Fatalf("delta on bare destination: %v", err)
	}
	// Destination holding a different generation: refused.
	other := &xport.Manifest{SnapID: 1, SectorSize: ss, Sectors: src.Sectors()}
	if _, _, err := ReceiveInto(dst, now, stream, other); !errors.Is(err, xport.ErrBaseMismatch) {
		t.Fatalf("delta on wrong generation: %v", err)
	}
	// A replicator with no committed generation refuses to even export one.
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	if _, _, err := r.Replicate(now, s2.ID, s1.ID); !errors.Is(err, xport.ErrBaseMismatch) {
		t.Fatalf("incremental with no generation: %v", err)
	}
}

func TestDestageThenDeleteFreesFlash(t *testing.T) {
	// The destage workflow: export a snapshot, delete it, verify the
	// cleaner can then reclaim its blocks (the device keeps working under
	// churn that would otherwise exhaust it).
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 100; lba++ {
		f.Sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, _ := f.CreateSnapshot(now)
	for lba := int64(0); lba < 100; lba++ {
		f.Sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	_, archive, now, err := f.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	if now, err = f.DeleteSnapshot(now, snap.ID); err != nil {
		t.Fatal(err)
	}
	// Churn that needs the reclaimed space.
	rng := sim.NewRNG(9)
	for i := 0; i < 300; i++ {
		f.Sched.RunUntil(now)
		lba := rng.Int63n(100)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i)))
		if err != nil {
			t.Fatalf("churn after destage: %v", err)
		}
		now = d
	}
	// And the archive still restores generation 1.
	dst := newTestFTL(t)
	_, now2, err := ReceiveInto(dst, 0, archive, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	if _, err := dst.Read(now2, 42, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 42, 1)) {
		t.Fatal("archive lost the snapshot contents")
	}
}
