package iosnap

import (
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// TestSelectiveScanMatchesFullScan is the correctness property: with
// SelectiveScan enabled, every activation must produce exactly the same
// view as a full-log scan, under churn, cleaning, and crashes.
func TestSelectiveScanMatchesFullScan(t *testing.T) {
	for _, seed := range []uint64{5, 17} {
		nc := testConfig().Nand
		nc.Segments = 40 // room for three pinned snapshots plus churn
		cfg := DefaultConfig(nc)
		cfg.GCWindow = 10 * sim.Millisecond
		cfg.BitmapPageBits = 64
		cfg.SelectiveScan = true
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := f.SectorSize()
		rng := sim.NewRNG(seed)
		now := sim.Time(0)
		m := model.New[SnapshotID]()
		for step := 0; step < 700; step++ {
			f.Sched.RunUntil(now)
			if step%180 == 120 && len(m.IDs()) < 3 {
				snap, d, err := f.CreateSnapshot(now)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				m.Freeze(snap.ID, m.Active)
				continue
			}
			lba := rng.Int63n(90)
			v := uint64(step + 1)
			d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			m.Active.Write(lba, v)
			now = d
		}
		now = f.Sched.Drain(now)
		if f.Stats().GCRuns == 0 {
			t.Fatalf("seed %d: no cleaning; selective-scan test weak", seed)
		}
		verifySnapshots(t, f, m, now)
	}
}

// TestSelectiveScanIsFaster checks the optimization actually pays: on a
// large log where the snapshot's data is confined to a few segments, the
// selective activation must scan far fewer segments and finish sooner.
func TestSelectiveScanIsFaster(t *testing.T) {
	run := func(selective bool) sim.Duration {
		nc := testConfig().Nand
		nc.Segments = 64
		cfg := DefaultConfig(nc)
		cfg.BitmapPageBits = 64
		cfg.SelectiveScan = selective
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := f.SectorSize()
		now := sim.Time(0)
		// A tiny early snapshot...
		for lba := int64(0); lba < 10; lba++ {
			now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
		}
		snap, now, err := f.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		// ...followed by a lot of unrelated data filling many segments.
		for lba := int64(100); lba < 700; lba++ {
			f.Sched.RunUntil(now)
			d, err := f.Write(now, lba, sectorPattern(ss, lba, 2))
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		start := now
		view, done, err := f.ActivateSync(now, snap.ID, noLimit, false)
		if err != nil {
			t.Fatal(err)
		}
		if view.MappedSectors() != 10 {
			t.Fatalf("selective=%v mapped %d, want 10", selective, view.MappedSectors())
		}
		return done.Sub(start)
	}
	full := run(false)
	sel := run(true)
	if sel >= full/4 {
		t.Fatalf("selective scan (%v) not much faster than full scan (%v)", sel, full)
	}
}

// TestSelectiveScanWithConcurrentGC stresses the moved-block hook under
// the reduced scan list.
func TestSelectiveScanWithConcurrentGC(t *testing.T) {
	cfg := testConfig()
	cfg.SelectiveScan = true
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	rng := sim.NewRNG(77)
	now := sim.Time(0)
	active := model.NewImage()
	for i := 0; i < 120; i++ {
		f.Sched.RunUntil(now)
		lba := rng.Int63n(80)
		v := uint64(i + 1)
		now, _ = f.Write(now, lba, model.Sectors(ss, lba, 1, v))
		active.Write(lba, v)
	}
	snap, now, _ := f.CreateSnapshot(now)
	frozen := active.Fork()
	act, now, err := f.Activate(now, snap.ID, throttled(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		f.Sched.RunUntil(now)
		lba := rng.Int63n(80)
		d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, uint64(200+i)))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	end := f.Sched.Drain(now)
	view, err := act.View()
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("no GC; test vacuous")
	}
	verifyImage(t, "selective scan + concurrent GC", frozen, ss, view.Read, end)
}

// throttled returns a small activation budget used by the concurrency test.
func throttled() ratelimit.WorkSleep {
	return ratelimit.WorkSleep{Work: 5 * sim.Microsecond, Sleep: 300 * sim.Microsecond}
}
