package iosnap

import (
	"testing"

	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// buildCheckpointedDevice fills a 128-segment device with a churned
// workload and two snapshots, then closes it cleanly so an anchored
// checkpoint generation is on the log.
func buildCheckpointedDevice(t testing.TB) (Config, *nand.Device, sim.Time) {
	t.Helper()
	nc := testConfig().Nand
	nc.Segments = 128
	nc.PagesPerSegment = 32
	cfg := DefaultConfig(nc) // rederive UserSectors for the larger geometry
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.BitmapPageBits = 64
	cfg.CoWPageCost = 10 * sim.Microsecond
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	for i := 0; i < 2500; i++ {
		f.Sched.RunUntil(now)
		lba := rng.Int63n(400)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i%250+1)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = d
		if i == 800 || i == 1700 {
			if _, d, err := f.CreateSnapshot(now); err == nil {
				now = d
			}
		}
	}
	now = f.Sched.Drain(now)
	now, err = f.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, f.Device(), now
}

// TestRecoveryCostTailBoundedVsFullScan mounts the same closed image twice:
// from the anchored checkpoint, scanning only the log tail, and by the
// exhaustive header scan the vanilla recovery path always performs (and
// that a lost checkpoint falls back to). Header pages scanned and virtual
// mount time are deterministic, so the tail-bounded win is pinned exactly:
// one segment's headers against the whole device's.
func TestRecoveryCostTailBoundedVsFullScan(t *testing.T) {
	cfg, dev, now := buildCheckpointedDevice(t)
	r, done, err := Recover(cfg, dev, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats().RecoveryTailBounded {
		t.Fatal("device did not mount tail-bounded")
	}
	if pages, took := r.Stats().RecoveryHeaderPages, done.Sub(now); pages != 32 || took != 89690 {
		t.Errorf("tail-bounded mount scanned %d header pages in %d virtual ns, want 32 in 89690", pages, took)
	}

	cfg, dev, now = buildCheckpointedDevice(t) // the first mount left its own device busy
	r, done, err = RecoverFullScan(cfg, dev, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if pages, took := r.Stats().RecoveryHeaderPages, done.Sub(now); pages != 4096 || took != 1603800 {
		t.Errorf("full-scan mount scanned %d header pages in %d virtual ns, want 4096 in 1603800", pages, took)
	}
}
