package iosnap

import (
	"bytes"
	"slices"
	"testing"

	"iosnap/internal/header"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// crashScenario drives a randomized mix of writes, snapshot creates and
// deletes, recording in m the active image and every live snapshot's
// image at its freeze point.
type crashScenario struct {
	f   *FTL
	now sim.Time
	m   *model.Model[SnapshotID]
}

func runScenario(t *testing.T, seed uint64, steps int) *crashScenario {
	t.Helper()
	return driveScenario(t, mustNew(t), seed, steps)
}

// driveScenario runs the randomized workload against a caller-built FTL
// (checkpoint tests use a larger device so the tail after a checkpoint
// stays GC-quiet).
func driveScenario(t *testing.T, f0 *FTL, seed uint64, steps int) *crashScenario {
	t.Helper()
	s := &crashScenario{f: f0, m: model.New[SnapshotID]()}
	f := s.f
	ss := f.SectorSize()
	rng := sim.NewRNG(seed)
	for i := 0; i < steps; i++ {
		f.Sched.RunUntil(s.now)
		switch op := rng.Intn(20); {
		case op == 0 && len(s.m.IDs()) < 2:
			// Bound live snapshots: each one pins its divergent blocks, and
			// the 256-page test device genuinely fills up otherwise (the
			// paper's "limited only by capacity" in miniature).
			snap, d, err := f.CreateSnapshot(s.now)
			if err != nil {
				t.Fatalf("seed %d step %d create: %v", seed, i, err)
			}
			s.now = d
			s.m.Freeze(snap.ID, s.m.Active)
		case op == 1 && len(s.m.IDs()) > 0:
			ids := s.m.IDs()
			id := ids[rng.Intn(len(ids))]
			d, err := f.DeleteSnapshot(s.now, id)
			if err != nil {
				t.Fatalf("seed %d step %d delete: %v", seed, i, err)
			}
			s.now = d
			s.m.Delete(id)
		default:
			lba := rng.Int63n(70)
			v := uint64(i + 1)
			d, err := f.Write(s.now, lba, model.Sectors(ss, lba, 1, v))
			if err != nil {
				t.Fatalf("seed %d step %d write: %v", seed, i, err)
			}
			s.m.Active.Write(lba, v)
			s.now = d
		}
	}
	s.now = f.Sched.Drain(s.now)
	return s
}

func mustNew(t *testing.T) *FTL {
	t.Helper()
	f, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRecoverActiveState(t *testing.T) {
	s := runScenario(t, 1, 400)
	r, now, err := Recover(s.f.Config(), s.f.Device(), nil, s.now)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	verifyImage(t, "after recovery", s.m.Active, r.SectorSize(), r.Read, now)
	if r.MappedSectors() != len(s.m.Active.LBAs()) {
		t.Fatalf("mapped %d, want %d", r.MappedSectors(), len(s.m.Active.LBAs()))
	}
}

func TestRecoverSnapshotTree(t *testing.T) {
	s := runScenario(t, 2, 500)
	// A fork point: a snapshot of a writable view of the oldest live
	// snapshot, which is then deleted. With two children its record stays,
	// a tombstone recovery must rebuild.
	f := s.f
	snaps := f.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("scenario left no snapshot to fork")
	}
	fork := snaps[0].ID
	vw, now, err := f.ActivateSync(s.now, fork, noLimit, true)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = vw.Write(now, 3, model.Sectors(f.SectorSize(), 3, 1, 9999)); err != nil {
		t.Fatal(err)
	}
	if _, now, err = vw.CreateSnapshot(now); err != nil {
		t.Fatal(err)
	}
	if now, err = vw.Deactivate(now); err != nil {
		t.Fatal(err)
	}
	if now, err = f.DeleteSnapshot(now, fork); err != nil {
		t.Fatal(err)
	}
	s.now = f.Sched.Drain(now)

	r, _, err := Recover(s.f.Config(), s.f.Device(), nil, s.now)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery reaps the history it rebuilt at once; the crashed FTL, which
	// reaped it as it died, is the tree it must have found.
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tombstones := f.Tree().Len() - len(f.Snapshots())
	if tombstones == 0 || f.Stats().SnapshotDeletes <= int64(tombstones) {
		t.Fatalf("scenario kept %d tombstones of %d deletes, want some reaped and some kept", tombstones, f.Stats().SnapshotDeletes)
	}
	if r.Tree().Len() != s.f.Tree().Len() {
		t.Fatalf("tree size %d, want %d", r.Tree().Len(), s.f.Tree().Len())
	}
	for _, id := range s.f.Tree().IDs() {
		orig, _ := s.f.Tree().Lookup(id)
		rec, ok := r.Tree().Lookup(id)
		if !ok {
			t.Fatalf("snapshot %d lost", id)
		}
		if rec.Epoch != orig.Epoch || rec.Deleted != orig.Deleted {
			t.Fatalf("snapshot %d mismatch: %+v vs %+v", id, rec, orig)
		}
		op, rp := orig.Parent, rec.Parent
		if (op == nil) != (rp == nil) || (op != nil && op.ID != rp.ID) {
			t.Fatalf("snapshot %d parent mismatch", id)
		}
	}
	if r.ActiveEpoch() != s.f.ActiveEpoch() {
		t.Fatalf("active epoch %d, want %d", r.ActiveEpoch(), s.f.ActiveEpoch())
	}
}

func TestRecoverThenActivateSnapshots(t *testing.T) {
	// The strongest property: every live snapshot must activate to exactly
	// its freeze-time state after a crash.
	for _, seed := range []uint64{3, 4, 5} {
		s := runScenario(t, seed, 450)
		r, now, err := Recover(s.f.Config(), s.f.Device(), nil, s.now)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.m.IDs()) == 0 {
			t.Fatalf("seed %d produced no live snapshots; scenario too weak", seed)
		}
		verifySnapshots(t, r, s.m, now)
	}
}

func TestRecoveredDeviceKeepsWorking(t *testing.T) {
	s := runScenario(t, 6, 300)
	r, now, err := Recover(s.f.Config(), s.f.Device(), nil, s.now)
	if err != nil {
		t.Fatal(err)
	}
	ss := r.SectorSize()
	rng := sim.NewRNG(60)
	for i := 0; i < 400; i++ {
		r.Scheduler().RunUntil(now)
		lba := rng.Int63n(70)
		v := uint64(1000 + i)
		d, err := r.Write(now, lba, model.Sectors(ss, lba, 1, v))
		if err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
		s.m.Active.Write(lba, v)
		now = d
	}
	// New snapshots on the recovered device.
	snap, now, err := r.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	now = r.Scheduler().Drain(now)
	view, now, err := r.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	verifyImage(t, "post-recovery snapshot", s.m.Active, ss, view.Read, now)
}

// TestMountWithNoFreeSegment: a cleaner whose copies took the last free
// segment leaves the pool empty until it erases its victim, and a crash or
// a Close can land in between. Such a device — here every page after the
// newest programmed one holds a copy of a data page, header and all, as the
// cleaner's copies do — failed to mount with ErrDeviceFull, though the live
// log would clean on its next write. It mounts, by the checkpoint and by
// the full scan, reads back, and its next writes clean before they program.
func TestMountWithNoFreeSegment(t *testing.T) {
	cfg := testConfig()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = f.Close(now); err != nil {
		t.Fatal(err)
	}
	dev := f.Device()
	var data []nand.PageAddr
	for a := nand.PageAddr(0); int64(a) < cfg.Nand.TotalPages(); a++ {
		if oob, err := dev.PageOOB(a); err == nil {
			if h, err := header.Unmarshal(oob); err == nil && h.Type == header.TypeData {
				data = append(data, a)
			}
		}
	}
	k := 0
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		for i := dev.NextFreeInSegment(seg); i < cfg.Nand.PagesPerSegment; i++ {
			if now, err = dev.CopyPage(now, data[k%len(data)], dev.Addr(seg, i)); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	for _, full := range []bool{false, true} {
		devA, _ := duplicateDevice(t, dev)
		recover := Recover
		if full {
			recover = RecoverFullScan
		}
		r, now, err := recover(cfg, devA, nil, now)
		if err != nil {
			t.Fatalf("full scan %v: mounting a device with no free segment: %v", full, err)
		}
		buf := make([]byte, ss)
		for i := 0; i < 200; i++ {
			lba := int64(i % 40)
			if _, err := r.Read(now, lba, buf); err != nil || !bytes.Equal(buf, sectorPattern(ss, lba, byte(1+i/40))) {
				t.Fatalf("full scan %v: write %d: LBA %d reads back wrong (%v)", full, i, lba, err)
			}
			if now, err = r.Write(now, lba, sectorPattern(ss, lba, byte(2+i/40))); err != nil {
				t.Fatalf("full scan %v: write %d after the mount: %v", full, i, err)
			}
			now = r.Scheduler().Drain(now)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDoubleCrash(t *testing.T) {
	// Crash, recover, write more, crash again, recover again: snapshot
	// notes must have survived both crashes.
	s := runScenario(t, 7, 350)
	r1, now, err := Recover(s.f.Config(), s.f.Device(), nil, s.now)
	if err != nil {
		t.Fatal(err)
	}
	ss := r1.SectorSize()
	rng := sim.NewRNG(71)
	for i := 0; i < 200; i++ {
		r1.Scheduler().RunUntil(now)
		lba := rng.Int63n(70)
		v := uint64(1000 + i)
		d, err := r1.Write(now, lba, model.Sectors(ss, lba, 1, v))
		if err != nil {
			t.Fatal(err)
		}
		s.m.Active.Write(lba, v)
		now = d
	}
	now = r1.Scheduler().Drain(now)
	r2, now, err := Recover(r1.Config(), r1.Device(), nil, now)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	s.f.reap() // both recoveries reaped the history they rebuilt
	if r2.Tree().Len() != s.f.Tree().Len() {
		t.Fatalf("tree lost across double crash: %d vs %d", r2.Tree().Len(), s.f.Tree().Len())
	}
	// The active image and the live snapshots must still read back.
	verifyImage(t, "after double crash", s.m.Active, ss, r2.Read, now)
	verifySnapshots(t, r2, s.m, now)
}

func TestRecoverFreshDevice(t *testing.T) {
	f := mustNew(t)
	r, _, err := Recover(f.Config(), f.Device(), nil, 0)
	if err != nil {
		t.Fatalf("fresh recovery: %v", err)
	}
	if r.MappedSectors() != 0 || r.Tree().Len() != 0 {
		t.Fatal("fresh recovery produced state")
	}
	if _, err := r.Write(0, 0, make([]byte, r.SectorSize())); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverGeometryMismatch(t *testing.T) {
	f := mustNew(t)
	other := testConfig()
	other.Nand.Segments = 8
	other.UserSectors = 64
	if _, _, err := Recover(other, f.Device(), nil, 0); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestRecoverAfterDeleteReclaims(t *testing.T) {
	// Deleted snapshots must stay deleted after recovery, and their blocks
	// must be reclaimable.
	f := mustNew(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 50; lba++ {
		f.Sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, _ := f.CreateSnapshot(now)
	for lba := int64(0); lba < 50; lba++ {
		f.Sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	now, err := f.DeleteSnapshot(now, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	r, now, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ActivateSync(now, snap.ID, noLimit, false); err == nil {
		t.Fatal("deleted snapshot activated after recovery")
	}
	// Churn: the deleted snapshot's blocks must be reclaimed, so this fits.
	rng := sim.NewRNG(8)
	for i := 0; i < 400; i++ {
		r.Scheduler().RunUntil(now)
		lba := rng.Int63n(50)
		d, err := r.Write(now, lba, sectorPattern(ss, lba, byte(i)))
		if err != nil {
			t.Fatalf("churn after recovery of deleted snapshot: %v", err)
		}
		now = d
	}
}

// TestMountsMatchLiveFTL: at a crash point both mounts hold what the live
// FTL held — its active map, its snapshot tree and epochs (reaped as the
// mounts reap theirs) and, in every live epoch, the same valid pages, each
// note valid in the epoch that was active when it was written.
func TestMountsMatchLiveFTL(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		s := ckptScenario(t, seed, 300)
		f := s.f
		if !f.StartCheckpoint(s.now) {
			t.Fatalf("seed %d: StartCheckpoint refused", seed)
		}
		s.now = f.Sched.Drain(s.now)
		tailChurn(t, s, seed+100)
		devA, devB := duplicateDevice(t, f.Device())
		tail, _, err := Recover(f.Config(), devA, nil, s.now)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !tail.Stats().RecoveryTailBounded {
			t.Fatalf("seed %d: the checkpointed device did not mount tail-bounded", seed)
		}
		full, _, err := RecoverFullScan(f.Config(), devB, nil, s.now)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		f.reap()
		for _, m := range []struct {
			name string
			r    *FTL
		}{{"tail-bounded", tail}, {"full-scan", full}} {
			if err := compareState(f, m.r); err != nil {
				t.Errorf("seed %d: live FTL vs %s mount: %v", seed, m.name, err)
			}
		}
	}
}

// TestFailedMountKeepsAnchor: a mount that refuses the log leaves the
// device's checkpoint anchor as it found it.
func TestFailedMountKeepsAnchor(t *testing.T) {
	cfg, img, lastSeq := recoverLogImage(t)
	dev, err := nand.LoadImage(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	programCrafted(t, dev, lastSeq, craftedHeaders(header.Header{Type: header.TypeSnapCreate, LBA: 3, Epoch: 0, Seq: 1}))
	want := dev.Anchor()
	if want == nil {
		t.Fatal("the closed device has no anchor")
	}
	for _, m := range []struct {
		name  string
		mount func(Config, *nand.Device, *sim.Scheduler, sim.Time) (*FTL, sim.Time, error)
	}{{"Recover", Recover}, {"RecoverFullScan", RecoverFullScan}} {
		if _, _, err := m.mount(cfg, dev, nil, 0); err == nil {
			t.Fatalf("%s mounted a create note freezing epoch 0", m.name)
		}
		if got := dev.Anchor(); got == nil || got.ID != want.ID || !slices.Equal(got.Addrs, want.Addrs) {
			t.Fatalf("%s failed and left the anchor %+v, want %+v", m.name, got, want)
		}
	}
}

// TestMountRefusesLBAOutsideDevice: a data page whose header names an LBA
// past the device's sectors is not one the live system writes; both mounts
// refuse it, with either map.
func TestMountRefusesLBAOutsideDevice(t *testing.T) {
	for _, pages := range []int{0, 2} {
		cfg := testConfig()
		cfg.MapCachePages = pages
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		for lba := int64(0); lba < 8; lba++ {
			if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if now, err = f.Close(now); err != nil {
			t.Fatal(err)
		}
		programCrafted(t, f.Dev, f.Seq, craftedHeaders(header.Header{Type: header.TypeData, LBA: 5000, Epoch: 1, Seq: 1}))
		devA, devB := duplicateDevice(t, f.Dev)
		if _, _, err := Recover(cfg, devA, nil, now); err == nil {
			t.Fatalf("map cache %d: Recover mapped LBA 5000 on a %d-sector device", pages, cfg.UserSectors)
		}
		if _, _, err := RecoverFullScan(cfg, devB, nil, now); err == nil {
			t.Fatalf("map cache %d: RecoverFullScan mapped LBA 5000 on a %d-sector device", pages, cfg.UserSectors)
		}
	}
}

// TestWritableViewSnapshotAfterCheckpoint: a writable view whose snapshot
// comes after a checkpoint mounts tail-bounded and equal to the full scan,
// and every snapshot reads back — whether the view had snapshotted before
// the checkpoint or was still on its activation epoch when it was taken.
func TestWritableViewSnapshotAfterCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(h *histRun)
	}{
		{"snapshot-before-checkpoint", func(h *histRun) {
			h.write(nil, nil, span(0, 20)...)
			s1 := h.create()
			h.write(nil, nil, 2, 5, 7)
			vm := h.m.Snapshot(s1.ID).Fork()
			vw := h.activate(s1.ID, true)
			h.write(vw, vm, 3, 4, 30)
			h.createFrom(vw, vm)
			h.checkpoint()
			h.write(vw, vm, 4, 6, 31)
			h.write(nil, nil, 3, 6)
			h.createFrom(vw, vm)
			h.write(vw, vm, 6)
		}},
		{"activation-epoch-at-checkpoint", func(h *histRun) {
			h.write(nil, nil, span(0, 20)...)
			s1 := h.create()
			vm := h.m.Snapshot(s1.ID).Fork()
			vw := h.activate(s1.ID, true)
			h.checkpoint()
			h.write(vw, vm, 3, 4)
			h.createFrom(vw, vm)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistRun(t, ckptConfig())
			tc.run(h)
			h.now = h.f.Sched.Drain(h.now)

			devA, devB := duplicateDevice(t, h.f.Device())
			tail, now, err := Recover(h.f.Config(), devA, nil, h.now)
			if err != nil {
				t.Fatal(err)
			}
			if !tail.Stats().RecoveryTailBounded {
				t.Fatalf("a writable view's snapshot after the checkpoint made the mount fall back (%d header pages read)",
					tail.Stats().RecoveryHeaderPages)
			}
			full, _, err := RecoverFullScan(h.f.Config(), devB, nil, h.now)
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareRecovered(tail, full); err != nil {
				t.Fatal(err)
			}
			if err := tail.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			h.verify(tail, now, "after the mount")
		})
	}
}
