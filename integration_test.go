package main

import (
	"bytes"
	"testing"

	"iosnap/internal/blockdev"
	"iosnap/internal/cowsim"
	"iosnap/internal/ftl"
	"iosnap/internal/harness"
	"iosnap/internal/iosnap"
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

func pat(ss int, lba int64, v byte) []byte {
	b := make([]byte, ss)
	for i := range b {
		b[i] = byte(lba) ^ v ^ byte(i>>3)
	}
	return b
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
	model := make(map[int64]byte)
	snapModels := make(map[iosnap.SnapshotID]map[int64]byte)

	const space = 200
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 150; i++ {
			f.Scheduler().RunUntil(now)
			lba := rng.Int63n(space)
			v := byte(phase*40 + i%40 + 1)
			d, err := f.Write(now, lba, pat(ss, lba, v))
			if err != nil {
				t.Fatalf("phase %d write %d: %v", phase, i, err)
			}
			model[lba] = v
			now = d
		}
		snap, d, err := f.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		frozen := make(map[int64]byte, len(model))
		for k, v := range model {
			frozen[k] = v
		}
		snapModels[snap.ID] = frozen
		// Keep at most 2 live snapshots; delete the oldest beyond that.
		live := f.Snapshots()
		if len(live) > 2 {
			victim := live[0].ID
			if now, err = f.DeleteSnapshot(now, victim); err != nil {
				t.Fatal(err)
			}
			delete(snapModels, victim)
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
	buf := make([]byte, ss)
	for lba, v := range model {
		if _, err := rec.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(ss, lba, v)) {
			t.Fatalf("active LBA %d wrong after crash", lba)
		}
	}
	for id, frozen := range snapModels {
		view, d, err := rec.ActivateSync(now, id, ratelimit.WorkSleep{}, false)
		if err != nil {
			t.Fatalf("activating %d post-crash: %v", id, err)
		}
		now = d
		for lba, v := range frozen {
			if _, err := view.Read(now, lba, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, pat(ss, lba, v)) {
				t.Fatalf("snapshot %d LBA %d wrong after crash", id, lba)
			}
		}
		if _, err := view.Deactivate(now); err != nil {
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
	now, _ = f.Write(now, 3, pat(ss, 3, 1))
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	now, _ = f.Write(now, 3, pat(ss, 3, 2))

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
	if !bytes.Equal(buf, pat(ss, 3, 2)) {
		t.Fatal("active state lost through image")
	}
	view, now2, err := f2.ActivateSync(now2, snap.ID, ratelimit.WorkSleep{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Read(now2, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(ss, 3, 1)) {
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
		data := pat(ss, lba, byte(i))
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

// TestVerifiedWorkloadOverIoSnap runs stamped writes followed by verified
// reads across heavy cleaning on ioSnap with snapshots present — end-to-end
// data-integrity of the whole stack under churn.
func TestVerifiedWorkloadOverIoSnap(t *testing.T) {
	nc := integNand()
	nc.Segments = 32
	cfg := iosnap.DefaultConfig(nc)
	cfg.GCWindow = 5 * sim.Millisecond
	f, err := iosnap.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := workload.NewVerifier()
	region := int64(120)
	// Several stamped write passes with snapshots between them.
	for pass := 0; pass < 4; pass++ {
		spec := workload.Spec{
			Kind: workload.Write, Pattern: workload.Random,
			BlockSize: 512, Threads: 1, QueueDepth: 1,
			MaxOps: 400, Seed: uint64(pass + 1), RangeHi: region,
		}
		if _, _, err := workload.Run(f, 0, spec, workload.Options{Scheduler: f.Scheduler(), Verify: v}); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if _, _, err := f.CreateSnapshot(0); err != nil {
			t.Fatalf("pass %d snapshot: %v", pass, err)
		}
		if f.Tree().Live() > 1 {
			oldest := f.Snapshots()[0]
			if _, err := f.DeleteSnapshot(0, oldest.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("no cleaning; integrity test is weak")
	}
	rspec := workload.Spec{
		Kind: workload.Read, Pattern: workload.Random,
		BlockSize: 512, Threads: 1, QueueDepth: 1,
		MaxOps: 1500, Seed: 99, RangeHi: region,
	}
	if _, _, err := workload.Run(f, 0, rspec, workload.Options{Scheduler: f.Scheduler(), Verify: v}); err != nil {
		t.Fatalf("verified reads: %v", err)
	}
	if v.Checked < 1000 {
		t.Fatalf("only %d sectors verified", v.Checked)
	}
}
