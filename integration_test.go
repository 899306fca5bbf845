package main

import (
	"bytes"
	"testing"

	"iosnap/internal/blockdev"
	"iosnap/internal/cowsim"
	"iosnap/internal/ftl"
	"iosnap/internal/harness"
	"iosnap/internal/iosnap"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

// Interface compliance: every storage system is a blockdev.Device.
var (
	_ blockdev.Device  = (*ftl.FTL)(nil)
	_ blockdev.Trimmer = (*ftl.FTL)(nil)
	_ blockdev.Device  = (*iosnap.FTL)(nil)
	_ blockdev.Trimmer = (*iosnap.FTL)(nil)
	_ blockdev.Device  = (*iosnap.View)(nil)
	_ blockdev.Device  = (*cowsim.Store)(nil)
)

func integNand() nand.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 32
	nc.Segments = 48
	nc.Channels = 4
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	return nc
}

// TestFullLifecycle drives the whole stack: workload-driven writes, periodic
// snapshots, background cleaning, a crash, two-pass recovery, and activation
// of every surviving snapshot — verifying content at each step.
func TestFullLifecycle(t *testing.T) {
	nc := integNand()
	nc.Segments = 24 // small enough that the churn forces real cleaning
	cfg := iosnap.DefaultConfig(nc)
	cfg.GCWindow = 5 * sim.Millisecond
	f, err := iosnap.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	rng := sim.NewRNG(77)
	m := model.New[iosnap.SnapshotID]()

	const space = 200
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 150; i++ {
			f.Scheduler().RunUntil(now)
			lba := rng.Int63n(space)
			v := uint64(phase*150 + i + 1)
			d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
			if err != nil {
				t.Fatalf("phase %d write %d: %v", phase, i, err)
			}
			m.Active.Write(lba, v)
			now = d
		}
		snap, d, err := f.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		m.Freeze(snap.ID, m.Active)
		// Keep at most 2 live snapshots; delete the oldest beyond that.
		live := f.Snapshots()
		if len(live) > 2 {
			victim := live[0].ID
			if now, err = f.DeleteSnapshot(now, victim); err != nil {
				t.Fatal(err)
			}
			m.Delete(victim)
		}
	}
	now = f.Scheduler().Drain(now)
	if f.Stats().GCRuns == 0 {
		t.Fatal("no background cleaning happened; test too small")
	}

	// Crash + recover.
	rec, now, err := iosnap.Recover(cfg, f.Device(), nil, now)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if err := m.Active.Verify(ss, model.At(rec.Read, now)); err != nil {
		t.Fatalf("active image after crash: %v", err)
	}
	verifySnapshots(t, rec, m, now)
}

// verifySnapshots activates every snapshot of m on f and reads its frozen
// image back.
func verifySnapshots(t *testing.T, f *iosnap.FTL, m *model.Model[iosnap.SnapshotID], now sim.Time) {
	t.Helper()
	for _, id := range m.IDs() {
		view, d, err := f.ActivateSync(now, id, ratelimit.WorkSleep{}, false)
		if err != nil {
			t.Fatalf("activating snapshot %d: %v", id, err)
		}
		now = d
		if err := m.Snapshot(id).Verify(f.SectorSize(), model.At(view.Read, now)); err != nil {
			t.Fatalf("snapshot %d: %v", id, err)
		}
		if now, err = view.Deactivate(now); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImagePersistenceAcrossProcesses emulates iosnapctl: device state
// round-trips through a serialized image plus log recovery.
func TestImagePersistenceAcrossProcesses(t *testing.T) {
	cfg := iosnap.DefaultConfig(integNand())
	f, err := iosnap.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	now, _ = f.Write(now, 3, model.Sectors(ss, 3, 1, 1))
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	now, _ = f.Write(now, 3, model.Sectors(ss, 3, 1, 2))

	var img bytes.Buffer
	if err := f.Device().SaveImage(&img); err != nil {
		t.Fatal(err)
	}

	// "New process": load + recover.
	dev2, err := nand.LoadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f2, now2, err := iosnap.Recover(cfg, dev2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	if _, err := f2.Read(now2, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, model.Sectors(ss, 3, 1, 2)) {
		t.Fatal("active state lost through image")
	}
	view, now2, err := f2.ActivateSync(now2, snap.ID, ratelimit.WorkSleep{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Read(now2, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, model.Sectors(ss, 3, 1, 1)) {
		t.Fatal("snapshot state lost through image")
	}
}

// TestWorkloadOverAllSystems sanity-runs the workload driver against every
// block device implementation.
func TestWorkloadOverAllSystems(t *testing.T) {
	vf, err := ftl.New(ftl.DefaultConfig(integNand()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := iosnap.New(iosnap.DefaultConfig(integNand()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cowsim.DefaultConfig(1024)
	ccfg.SectorSize = 512
	cs, err := cowsim.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	devs := map[string]blockdev.Device{"ftl": vf, "iosnap": sf, "cowsim": cs}
	scheds := map[string]*sim.Scheduler{"ftl": vf.Scheduler(), "iosnap": sf.Scheduler(), "cowsim": nil}
	for name, dev := range devs {
		spec := workload.Spec{
			Kind: workload.Write, Pattern: workload.Zipf, ZipfS: 1.3,
			BlockSize: 512, Threads: 2, QueueDepth: 4,
			MaxOps: 2000, Seed: 4, SubmitCost: 100 * sim.Nanosecond,
		}
		res, _, err := workload.Run(dev, 0, spec, workload.Options{Scheduler: scheds[name]})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Ops != 2000 || res.MBps <= 0 {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

// TestExperimentsSmoke runs every registered experiment at a tiny scale —
// any structural regression in an experiment fails the unit suite, not
// just a long benchmark run.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short")
	}
	rc := harness.RunConfig{Scale: 0.02}
	for _, exp := range harness.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			report, err := exp.Run(rc)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if report.ID != exp.ID {
				t.Fatalf("report id %q", report.ID)
			}
			if len(report.Tables) == 0 {
				t.Fatalf("%s produced no tables", exp.ID)
			}
			for _, tbl := range report.Tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s produced an empty table %q", exp.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Fatalf("%s: row width %d != header %d", exp.ID, len(row), len(tbl.Header))
					}
				}
			}
			var sink bytes.Buffer
			report.Render(&sink)
			if sink.Len() == 0 {
				t.Fatalf("%s rendered nothing", exp.ID)
			}
			sink.Reset()
			if err := report.WriteCSV(&sink); err != nil {
				t.Fatalf("%s CSV: %v", exp.ID, err)
			}
		})
	}
}

// TestVanillaAndIoSnapAgreeWithoutSnapshots runs identical workloads over
// both FTLs with zero snapshots: contents must agree sector for sector.
func TestVanillaAndIoSnapAgreeWithoutSnapshots(t *testing.T) {
	vf, err := ftl.New(ftl.DefaultConfig(integNand()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := iosnap.New(iosnap.DefaultConfig(integNand()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := vf.SectorSize()
	rng := sim.NewRNG(123)
	var vNow, sNow sim.Time
	space := vf.Sectors()
	if s := sf.Sectors(); s < space {
		space = s
	}
	for i := 0; i < 1200; i++ {
		lba := rng.Int63n(space)
		data := model.Sectors(ss, lba, 1, uint64(i+1))
		vf.Scheduler().RunUntil(vNow)
		sf.Scheduler().RunUntil(sNow)
		d1, err := vf.Write(vNow, lba, data)
		if err != nil {
			t.Fatalf("vanilla write %d: %v", i, err)
		}
		d2, err := sf.Write(sNow, lba, data)
		if err != nil {
			t.Fatalf("iosnap write %d: %v", i, err)
		}
		vNow, sNow = d1, d2
	}
	vNow = vf.Scheduler().Drain(vNow)
	sNow = sf.Scheduler().Drain(sNow)
	b1 := make([]byte, ss)
	b2 := make([]byte, ss)
	for lba := int64(0); lba < space; lba++ {
		if _, err := vf.Read(vNow, lba, b1); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.Read(sNow, lba, b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("LBA %d differs between vanilla and ioSnap", lba)
		}
	}
}

// TestVerifiedWorkloadOverIoSnap runs random write passes with snapshots
// between them, then random reads, across heavy cleaning on ioSnap, checking
// every read and the live snapshot against the content model: end-to-end
// data integrity of the whole stack under churn.
func TestVerifiedWorkloadOverIoSnap(t *testing.T) {
	nc := integNand()
	nc.Segments = 32
	cfg := iosnap.DefaultConfig(nc)
	cfg.GCWindow = 5 * sim.Millisecond
	f, err := iosnap.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	m := model.New[iosnap.SnapshotID]()
	region := int64(120)
	now := sim.Time(0)
	ver := uint64(0)
	for pass := 0; pass < 4; pass++ {
		rng := sim.NewRNG(uint64(pass + 1))
		for i := 0; i < 400; i++ {
			f.Scheduler().RunUntil(now)
			lba := rng.Int63n(region)
			ver++
			if now, err = f.Write(now, lba, model.Sectors(ss, lba, 1, ver)); err != nil {
				t.Fatalf("pass %d write %d: %v", pass, i, err)
			}
			m.Active.Write(lba, ver)
		}
		snap, d, err := f.CreateSnapshot(now)
		if err != nil {
			t.Fatalf("pass %d snapshot: %v", pass, err)
		}
		now = d
		m.Freeze(snap.ID, m.Active)
		if f.Tree().Live() > 1 {
			oldest := f.Snapshots()[0].ID
			if now, err = f.DeleteSnapshot(now, oldest); err != nil {
				t.Fatal(err)
			}
			m.Delete(oldest)
		}
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("no cleaning; integrity test is weak")
	}
	rng := sim.NewRNG(99)
	buf := make([]byte, ss)
	verified := 0
	for i := 0; i < 1500; i++ {
		f.Scheduler().RunUntil(now)
		lba := rng.Int63n(region)
		if now, err = f.Read(now, lba, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		v := m.Active.Version(lba)
		if !model.Check(buf, lba, v) {
			t.Fatalf("read %d: LBA %d does not hold version %d", i, lba, v)
		}
		if v != 0 {
			verified++
		}
	}
	if verified < 1000 {
		t.Fatalf("only %d sectors verified", verified)
	}
	verifySnapshots(t, f, m, now)
}
