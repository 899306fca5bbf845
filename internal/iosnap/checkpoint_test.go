package iosnap

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"iosnap/internal/bitmap"
	"iosnap/internal/codec"
	"iosnap/internal/faultinject"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// duplicateDevice clones the scenario's device twice via the image
// round-trip, so tail-bounded and full-scan recovery can each run against
// an identical copy of the crashed media (full-scan recovery clears the
// anchor, so the two legs must not share a device).
func duplicateDevice(t *testing.T, dev *nand.Device) (*nand.Device, *nand.Device) {
	t.Helper()
	var buf bytes.Buffer
	if err := dev.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	a, err := nand.LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	b, err := nand.LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	return a, b
}

// ckptConfig: testConfig on a 64-segment device. A post-checkpoint erase
// legitimately invalidates the generation (its segment table and forward map
// describe pre-erase media), so the tail-path tests need enough headroom
// that the tail written after the checkpoint never triggers cleaning; the
// fallback tests cover the opposite case.
func ckptConfig() Config {
	cfg := testConfig()
	cfg.Nand.Segments = 64
	return cfg
}

func ckptScenario(t *testing.T, seed uint64, steps int) *crashScenario {
	t.Helper()
	f, err := New(ckptConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return driveScenario(t, f, seed, steps)
}

// tailChurn appends post-checkpoint activity — writes, one snapshot create,
// one snapshot delete — so recovery has a real tail to replay on top of the
// checkpointed state.
func tailChurn(t *testing.T, s *crashScenario, seed uint64) {
	t.Helper()
	f := s.f
	ss := f.SectorSize()
	rng := sim.NewRNG(seed)
	write := func(i int) {
		f.Sched.RunUntil(s.now)
		lba := rng.Int63n(70)
		v := uint64(2000 + i)
		d, err := f.Write(s.now, lba, model.Sectors(ss, lba, 1, v))
		if err != nil {
			t.Fatalf("tail write: %v", err)
		}
		s.m.Active.Write(lba, v)
		s.now = d
	}
	for i := 0; i < 8; i++ {
		write(i)
	}
	snap, d, err := f.CreateSnapshot(s.now)
	if err != nil {
		t.Fatalf("tail create: %v", err)
	}
	s.now = d
	s.m.Freeze(snap.ID, s.m.Active)
	for i := 8; i < 16; i++ {
		write(i)
	}
	// Delete a pre-checkpoint snapshot if one is still live, exercising
	// delete-note replay against checkpointed tree state; otherwise delete
	// the one just created.
	victim := snap.ID
	for _, sn := range f.Snapshots() {
		if sn.ID != snap.ID {
			victim = sn.ID
			break
		}
	}
	if d, err := f.DeleteSnapshot(s.now, victim); err == nil {
		s.now = d
		s.m.Delete(victim)
	}
	for i := 16; i < 24; i++ {
		write(i)
	}
	s.now = f.Sched.Drain(s.now)
}

// TestCloseWritesCheckpoint: a clean shutdown leaves an anchored checkpoint
// generation behind, and the next mount takes the tail-bounded path.
func TestCloseWritesCheckpoint(t *testing.T) {
	s := runScenario(t, 7, 250)
	f := s.f
	now, err := f.Close(s.now)
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := f.Stats()
	if st.Checkpoints < 1 || st.CheckpointChunks < 3 {
		t.Fatalf("Close wrote no checkpoint: %+v", st)
	}
	if f.Device().Anchor() == nil {
		t.Fatal("no anchor after Close")
	}
	r, now, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !r.Stats().RecoveryTailBounded {
		t.Fatal("recovery after clean Close did not take the tail-bounded path")
	}
	if r.Stats().RecoveryFallbacks != 0 {
		t.Fatal("clean Close recovery fell back")
	}
	verifyImage(t, "after recovery", s.m.Active, r.SectorSize(), r.Read, now)
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("invariants after tail recovery: %v", err)
	}
}

// TestTailRecoveryMatchesFullScan: the property at the heart of the tail
// path — for the same crashed device, tail-bounded recovery and full-scan
// recovery must reconstruct byte-identical FTL state, and the tail path
// must read strictly fewer header pages.
func TestTailRecoveryMatchesFullScan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		s := ckptScenario(t, seed, 300)
		f := s.f
		if !f.StartCheckpoint(s.now) {
			t.Fatalf("seed %d: StartCheckpoint refused", seed)
		}
		s.now = f.Sched.Drain(s.now)
		if f.Stats().Checkpoints < 1 {
			t.Fatalf("seed %d: checkpoint did not commit", seed)
		}
		tailChurn(t, s, seed+100)
		// Crash here: no Close. Recover two identical copies both ways.
		devA, devB := duplicateDevice(t, f.Device())
		a, nowA, err := Recover(f.Config(), devA, nil, s.now)
		if err != nil {
			t.Fatalf("seed %d: tail recover: %v", seed, err)
		}
		b, _, err := RecoverFullScan(f.Config(), devB, nil, s.now)
		if err != nil {
			t.Fatalf("seed %d: full-scan recover: %v", seed, err)
		}
		if !a.Stats().RecoveryTailBounded {
			t.Fatalf("seed %d: anchored device did not take the tail path", seed)
		}
		if b.Stats().RecoveryTailBounded {
			t.Fatalf("seed %d: full-scan leg claims tail-bounded", seed)
		}
		if err := CompareRecovered(a, b); err != nil {
			t.Fatalf("seed %d: tail vs full-scan divergence: %v", seed, err)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: tail invariants: %v", seed, err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: full-scan invariants: %v", seed, err)
		}
		if ap, bp := a.Stats().RecoveryHeaderPages, b.Stats().RecoveryHeaderPages; ap >= bp {
			t.Fatalf("seed %d: tail path scanned %d header pages, full scan %d", seed, ap, bp)
		}
		verifyImage(t, "after recovery", s.m.Active, a.SectorSize(), a.Read, nowA)
	}
}

// TestTailRecoveryFallsBack: a checkpoint generation that cannot be loaded
// whole — a missing chunk, or an anchor naming the wrong generation — must
// be rejected in favour of the full scan, losing nothing.
func TestTailRecoveryFallsBack(t *testing.T) {
	tamper := map[string]func(a *nand.Anchor) *nand.Anchor{
		"missing-chunk": func(a *nand.Anchor) *nand.Anchor {
			a.Addrs = a.Addrs[:len(a.Addrs)-1]
			return a
		},
		"wrong-generation": func(a *nand.Anchor) *nand.Anchor {
			a.ID++
			return a
		},
		"empty-anchor": func(a *nand.Anchor) *nand.Anchor {
			a.Addrs = nil
			return a
		},
	}
	for name, mutate := range tamper {
		t.Run(name, func(t *testing.T) {
			s := runScenario(t, 11, 250)
			now, err := s.f.Close(s.now)
			if err != nil {
				t.Fatal(err)
			}
			dev := s.f.Device()
			anchor := dev.Anchor()
			if anchor == nil || len(anchor.Addrs) < 2 {
				t.Fatalf("unexpectedly small checkpoint: %+v", anchor)
			}
			dev.SetAnchor(mutate(anchor))
			r, now, err := Recover(s.f.Config(), dev, nil, now)
			if err != nil {
				t.Fatalf("recovery with tampered anchor: %v", err)
			}
			st := r.Stats()
			if st.RecoveryTailBounded {
				t.Fatal("tampered anchor accepted by the tail path")
			}
			if st.RecoveryFallbacks != 1 {
				t.Fatalf("RecoveryFallbacks = %d, want 1", st.RecoveryFallbacks)
			}
			verifyImage(t, "after recovery", s.m.Active, r.SectorSize(), r.Read, now)
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("invariants after fallback: %v", err)
			}
		})
	}
}

// TestTornChunkFallsBack: a chunk page whose header was torn mid-program is
// unreadable at mount; the tail path must reject the generation, not trust
// a partially-written checkpoint.
func TestTornChunkFallsBack(t *testing.T) {
	s := runScenario(t, 13, 250)
	now, err := s.f.Close(s.now)
	if err != nil {
		t.Fatal(err)
	}
	dev := s.f.Device()
	anchor := dev.Anchor()
	if anchor == nil || len(anchor.Addrs) == 0 {
		t.Fatal("no checkpoint")
	}
	// Simulate the torn OOB by re-anchoring one chunk slot at a blank page:
	// the header there is unparseable, exactly as a torn program reads back.
	free := -1
	for seg := 0; seg < s.f.Config().Nand.Segments; seg++ {
		if dev.ProgrammedInSegment(seg) == 0 && dev.SegmentHealth(seg) == nand.Healthy {
			free = seg
			break
		}
	}
	if free < 0 {
		t.Fatal("no free segment to fake a torn chunk")
	}
	anchor.Addrs[0] = dev.Addr(free, 0)
	dev.SetAnchor(anchor)
	r, now, err := Recover(s.f.Config(), dev, nil, now)
	if err != nil {
		t.Fatalf("recovery with torn chunk: %v", err)
	}
	if r.Stats().RecoveryTailBounded || r.Stats().RecoveryFallbacks != 1 {
		t.Fatalf("torn chunk not rejected: %+v", r.Stats())
	}
	verifyImage(t, "after recovery", s.m.Active, r.SectorSize(), r.Read, now)
}

// TestCheckpointChunksSurviveGC: the cleaner may relocate pinned checkpoint
// chunks; the anchor must follow them so a later mount still finds the
// generation intact.
func TestCheckpointChunksSurviveGC(t *testing.T) {
	s := runScenario(t, 17, 300)
	f := s.f
	if !f.StartCheckpoint(s.now) {
		t.Fatal("StartCheckpoint refused")
	}
	s.now = f.Sched.Drain(s.now)
	before := append([]nand.PageAddr(nil), f.AnchorAddrs...)
	if len(before) == 0 {
		t.Fatal("no committed checkpoint")
	}
	// Force-clean every non-head segment that holds a chunk. Pins follow the
	// relocated pages, so re-read the anchor addresses each round; each
	// segment is cleaned at most once, bounding the loop.
	moved := false
	cleaned := make(map[int]bool)
	for {
		target := -1
		for _, addr := range f.AnchorAddrs {
			seg := f.Dev.SegmentOf(addr)
			if seg != f.HeadSeg && !cleaned[seg] {
				target = seg
				break
			}
		}
		if target < 0 {
			break
		}
		cleaned[target] = true
		if err := f.ForceClean(s.now, target); err != nil {
			t.Fatalf("ForceClean(%d): %v", target, err)
		}
		s.now = f.Sched.Drain(s.now)
		moved = true
	}
	if !moved {
		t.Skip("all chunks landed on the head segment; nothing to relocate")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after relocating chunks: %v", err)
	}
	anchor := f.Device().Anchor()
	if anchor == nil || len(anchor.Addrs) != len(before) {
		t.Fatalf("anchor lost chunks across GC: %+v", anchor)
	}
	changed := false
	for i, a := range anchor.Addrs {
		if a != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("force-clean moved nothing; test proves nothing")
	}
	// The generation is now stale (its segment table describes pre-erase
	// media), but because its chunks were relocated rather than reclaimed,
	// recovery reads them cleanly, detects the staleness, and falls back —
	// it must never mount garbage or fail outright.
	devStale, _ := duplicateDevice(t, f.Device())
	r, now, err := Recover(f.Config(), devStale, nil, s.now)
	if err != nil {
		t.Fatalf("recover after chunk relocation: %v", err)
	}
	if r.Stats().RecoveryTailBounded || r.Stats().RecoveryFallbacks != 1 {
		t.Fatalf("stale relocated generation not detected: %+v", r.Stats())
	}
	verifyImage(t, "after recovery", s.m.Active, r.SectorSize(), r.Read, now)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A fresh checkpoint on the live FTL re-anchors against current media;
	// the next mount takes the tail path again.
	if !f.StartCheckpoint(s.now) {
		t.Fatal("re-checkpoint refused")
	}
	s.now = f.Sched.Drain(s.now)
	r2, now2, err := Recover(f.Config(), f.Device(), nil, s.now)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats().RecoveryTailBounded {
		t.Fatal("fresh checkpoint after GC not tail-mountable")
	}
	verifyImage(t, "after recovery", s.m.Active, r2.SectorSize(), r2.Read, now2)
	if err := r2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodicCheckpoint: with CheckpointInterval armed, checkpoints commit
// in the background as the log head rolls — no Close required — and a crash
// afterwards still mounts tail-bounded.
func TestPeriodicCheckpoint(t *testing.T) {
	cfg := ckptConfig()
	cfg.CheckpointInterval = 1 * sim.Millisecond
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	active := model.NewImage()
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		f.Sched.RunUntil(now)
		lba := int64(i % 60)
		v := uint64(i + 1)
		d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		active.Write(lba, v)
		now = d
		// Idle gaps let virtual time cross the interval between head rolls.
		now = now.Add(100 * sim.Microsecond)
	}
	now = f.Sched.Drain(now)
	st := f.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("periodic checkpointing committed %d generations, want >= 2", st.Checkpoints)
	}
	if f.Device().Anchor() == nil {
		t.Fatal("no anchor from periodic checkpoints")
	}
	// Crash without Close.
	r, now, err := Recover(cfg, f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats().RecoveryTailBounded {
		t.Fatal("periodic checkpoint not used by recovery")
	}
	verifyImage(t, "after recovery", active, r.SectorSize(), r.Read, now)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChunkFailureSealsHead: after a checkpoint aborted by a
// permanent chunk failure, ioSnap's CoW validity is consistent, and a
// retried checkpoint commits a generation a remount trusts and reads every
// sector back from. The engine's share (CheckpointErrors, the anchor left
// alone, the landed chunks unpinned, the sealed head) is logcore's
// TestCheckpointChunkFailureAborts.
func TestCheckpointChunkFailureSealsHead(t *testing.T) {
	s := runScenario(t, 19, 200)
	f := s.f
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 10, // outlasts the retry budget: a permanent failure
	})
	plan.Arm(f.Device())
	if !f.StartCheckpoint(s.now) {
		t.Fatal("StartCheckpoint refused")
	}
	s.now = f.Sched.Drain(s.now)
	plan.Disarm(f.Device())
	if st := f.Stats(); st.CheckpointErrors != 1 {
		t.Fatalf("setup: CheckpointErrors = %d, want the aborted checkpoint", st.CheckpointErrors)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after aborted checkpoint: %v", err)
	}
	d, err := f.Write(s.now, 1, model.Sectors(f.SectorSize(), 1, 1, 3000))
	if err != nil {
		t.Fatalf("write after sealed head: %v", err)
	}
	s.m.Active.Write(1, 3000)
	s.now = d
	if !f.StartCheckpoint(s.now) {
		t.Fatal("retry StartCheckpoint refused")
	}
	s.now = f.Sched.Drain(s.now)
	if f.Stats().Checkpoints != 1 {
		t.Fatalf("retried checkpoint did not commit: %+v", f.Stats())
	}
	r, now, err := Recover(f.Config(), f.Device(), nil, s.now)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats().RecoveryTailBounded {
		t.Fatal("retried checkpoint not tail-mountable")
	}
	verifyImage(t, "after recovery", s.m.Active, r.SectorSize(), r.Read, now)
}

// TestSnapshotsSurviveTailRecovery: snapshot content frozen before the
// checkpoint — and before the crash — reads back exactly through an
// activation on the tail-recovered FTL.
func TestSnapshotsSurviveTailRecovery(t *testing.T) {
	s := ckptScenario(t, 23, 350)
	f := s.f
	if !f.StartCheckpoint(s.now) {
		t.Fatal("StartCheckpoint refused")
	}
	s.now = f.Sched.Drain(s.now)
	tailChurn(t, s, 999)
	r, now, err := Recover(f.Config(), f.Device(), nil, s.now)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats().RecoveryTailBounded {
		t.Fatal("expected tail-bounded recovery")
	}
	if len(s.m.IDs()) == 0 {
		t.Skip("scenario left no live snapshots to verify")
	}
	verifySnapshots(t, r, s.m, now)
}

// TestValidSectionEncodingUnchanged: the validity section is written into a
// buffer sized up front, a bitmap page at a time; its bytes must be the ones
// a field-at-a-time encoder produces, and the size computed up front must be
// exact, or the buffer grows again.
func TestValidSectionEncodingUnchanged(t *testing.T) {
	for _, pageBits := range []int64{64, bitmap.DefaultBitsPerPage} {
		cfg := ckptConfig()
		cfg.BitmapPageBits = pageBits
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := driveScenario(t, f, 31, 400) // writes, snapshot creates and deletes
		// History that survives reaping: four more live snapshots, each
		// over writes of its own.
		for i := range int64(4) {
			for lba := 10 * i; lba < 10*i+5; lba++ {
				if s.now, err = f.Write(s.now, lba, sectorPattern(f.SectorSize(), lba, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, s.now, err = f.CreateSnapshot(s.now); err != nil {
				t.Fatal(err)
			}
		}
		// A view still on its activation epoch, whose snapshot is deleted
		// under it, and an activation in flight: the epochs are written as
		// they stand, the view's and the activation's live, the snapshot's
		// deleted.
		snaps := f.Snapshots()
		if _, s.now, err = f.ActivateSync(s.now, snaps[0].ID, noLimit, false); err != nil {
			t.Fatal(err)
		}
		if s.now, err = f.DeleteSnapshot(s.now, snaps[0].ID); err != nil {
			t.Fatal(err)
		}
		if _, s.now, err = f.Activate(s.now, snaps[len(snaps)-1].ID, actLimit, false); err != nil {
			t.Fatal(err)
		}

		var want codec.Writer
		want.U64(uint64(f.vstore.BitsPerPage()))
		epochs := f.vstore.Epochs()
		want.U32(uint32(len(epochs)))
		pages := 0
		for _, e := range epochs {
			want.U64(uint64(e))
			p, _ := f.vstore.Parent(e)
			want.U64(uint64(p))
			want.Bool(f.vstore.Deleted(e))
			owned := f.vstore.ExportEpoch(e)
			want.U32(uint32(len(owned)))
			for _, pg := range owned {
				pages++
				want.U64(uint64(pg.PageIdx))
				for _, w := range pg.Words {
					want.U64(w)
				}
			}
		}
		if pages < 6 || len(epochs) < 6 {
			t.Fatalf("page bits %d: degenerate stream: %d epochs, %d pages", pageBits, len(epochs), pages)
		}

		got := f.encodeValidSection()
		if !bytes.Equal(got, want.B) {
			t.Fatalf("page bits %d: validity section is %d bytes, the field-at-a-time encoding %d (or they differ)", pageBits, len(got), len(want.B))
		}
		if cap(got) != len(got) {
			t.Fatalf("page bits %d: section sized for %d bytes, holds %d", pageBits, cap(got), len(got))
		}
		recs, err := decodeCkptValid([]logcore.Section{{Kind: ckptSecValid, Data: got}}, pageBits)
		if err != nil || len(recs) != len(epochs) {
			t.Fatalf("page bits %d: decoded %d of %d epochs: %v", pageBits, len(recs), len(epochs), err)
		}
	}
}

// anchoredSections returns the sections of the generation f's device
// anchor names.
func anchoredSections(t *testing.T, f *FTL, now sim.Time) []logcore.Section {
	t.Helper()
	chunks, _, ok := f.ReadAnchorChunks(now)
	if !ok {
		t.Fatal("the device has no readable checkpoint")
	}
	secs, ok := logcore.AssembleStream(f.Device().Anchor().ID, chunks)
	if !ok {
		t.Fatal("the anchored stream does not assemble")
	}
	return secs
}

// freeSegmentWriter returns a function that programs pages in order into a
// free segment of f's closed device, each with a sequence number above f's:
// newer than the cut-off, as a tail page is (an older one in the tail marks
// a stale generation).
func freeSegmentWriter(t *testing.T, f *FTL, now sim.Time) func(data []byte, h header.Header) nand.PageAddr {
	dev, seg, seq := f.Device(), f.FreeSegs[0], f.Seq
	return func(data []byte, h header.Header) nand.PageAddr {
		t.Helper()
		seq++
		h.Seq = seq
		addr := dev.Addr(seg, dev.NextFreeInSegment(seg))
		if _, err := dev.ProgramPage(now, addr, data, h.Marshal()); err != nil {
			t.Fatal(err)
		}
		return addr
	}
}

// programStream programs secs as a stream of the anchored generation, its
// chunks typed typ, and returns their addresses.
func programStream(t *testing.T, f *FTL, program func([]byte, header.Header) nand.PageAddr, typ header.Type, secs []logcore.Section) []nand.PageAddr {
	t.Helper()
	chunks, err := f.StreamJobs(f.Device().Anchor().ID, secs)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []nand.PageAddr
	for i, c := range chunks {
		addrs = append(addrs, program(c, header.Header{Type: typ, LBA: uint64(i), Epoch: uint64(len(chunks))}))
	}
	return addrs
}

// mountRewritten mounts two copies of s's device, whose anchor a test has
// rewritten: tail-bounded or by one fallback as tail says, equal to the full
// scan, invariant-clean, with the active view and every snapshot intact.
func mountRewritten(t *testing.T, s *crashScenario, now sim.Time, tail bool) {
	t.Helper()
	devA, devB := duplicateDevice(t, s.f.Device())
	a, now, err := Recover(s.f.Config(), devA, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RecoverFullScan(s.f.Config(), devB, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	wantFallbacks := int64(1)
	if tail {
		wantFallbacks = 0
	}
	if stats := a.Stats(); stats.RecoveryTailBounded != tail || stats.RecoveryFallbacks != wantFallbacks {
		t.Fatalf("tail-bounded %v with %d fallbacks, want %v with %d", stats.RecoveryTailBounded, stats.RecoveryFallbacks, tail, wantFallbacks)
	}
	if err := CompareRecovered(a, b); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	verifyImage(t, "active view", s.m.Active, a.SectorSize(), a.Read, now)
	verifySnapshots(t, a, s.m, now)
}

// TestParentLayoutTreeSectionFallsBack: a tree section in the earlier layout
// — each segment record followed by a u32 epoch count and that many u64
// epochs — must be refused as a whole, never read as segment records, so
// the mount falls back to the full scan and recovers what it recovers. The
// same rewrite with the section left as written is the control: it must
// mount tail-bounded, so the refusal is the layout's.
func TestParentLayoutTreeSectionFallsBack(t *testing.T) {
	for _, parentLayout := range []bool{false, true} {
		s := ckptScenario(t, 21, 250)
		now, err := s.f.Close(s.now)
		if err != nil {
			t.Fatal(err)
		}
		secs := anchoredSections(t, s.f, now)
		st, err := decodeCkptTree(secs)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.table) == 0 {
			t.Fatal("checkpoint records no segment")
		}
		if parentLayout {
			ti := slices.IndexFunc(secs, func(s logcore.Section) bool { return s.Kind == ckptSecTree })
			data := secs[ti].Data
			off := 8 + 8 + 4 + 33*len(st.snaps) + 4
			if len(data) != off+logcore.SegRecordSize*len(st.table) {
				t.Fatalf("tree section of %d bytes for %d snapshots and %d segments", len(data), len(st.snaps), len(st.table))
			}
			old := slices.Clone(data[:off])
			for i := range st.table {
				rec := data[off+i*logcore.SegRecordSize : off+(i+1)*logcore.SegRecordSize]
				old = append(old, rec...)
				old = binary.LittleEndian.AppendUint32(old, 1)
				old = binary.LittleEndian.AppendUint64(old, uint64(st.active))
			}
			secs[ti].Data = old
			if _, err := decodeCkptTree(secs); err == nil {
				t.Fatal("a tree section in the earlier layout decoded")
			}
		}
		dev := s.f.Device()
		program := freeSegmentWriter(t, s.f, now)
		dev.SetAnchor(&nand.Anchor{ID: dev.Anchor().ID, Addrs: programStream(t, s.f, program, header.TypeCheckpoint, secs)})
		mountRewritten(t, s, now, !parentLayout)
	}
}

// TestThreeStreamGenerationFallsBack: a generation in the layout written
// before a checkpoint became one stream — its sections split into three
// streams, map, tree and alias, validity, each numbered from chunk 0 — is
// refused, never misread: with chunks typed 7–9 as they were then, and with
// all three streams typed TypeCheckpoint. The mount falls back to the full
// scan and every byte survives. The same sections as one stream are the
// control: they mount tail-bounded.
func TestThreeStreamGenerationFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		types []header.Type // one per stream; one entry = the one stream
	}{
		{"one-stream", []header.Type{header.TypeCheckpoint}},
		{"three-streams-typed-7-9", []header.Type{7, 8, 9}},
		{"three-streams-typed-checkpoint", []header.Type{header.TypeCheckpoint, header.TypeCheckpoint, header.TypeCheckpoint}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ckptScenario(t, 21, 250)
			if len(s.m.IDs()) == 0 {
				t.Fatal("scenario left no live snapshot")
			}
			now, err := s.f.Close(s.now)
			if err != nil {
				t.Fatal(err)
			}
			secs := anchoredSections(t, s.f, now)
			if len(secs) != 4 {
				t.Fatalf("the checkpoint has %d sections, want 4", len(secs))
			}
			streams := [][]logcore.Section{secs}
			if len(tc.types) == 3 {
				streams = [][]logcore.Section{secs[:1], secs[1:3], secs[3:]}
			}
			dev := s.f.Device()
			program := freeSegmentWriter(t, s.f, now)
			var addrs []nand.PageAddr
			for i, st := range streams {
				addrs = append(addrs, programStream(t, s.f, program, tc.types[i], st)...)
			}
			dev.SetAnchor(&nand.Anchor{ID: dev.Anchor().ID, Addrs: addrs})
			mountRewritten(t, s, now, len(tc.types) == 1)
		})
	}
}
