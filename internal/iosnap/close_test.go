package iosnap

import (
	"errors"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// TestCloseFailedCheckpointConsumesTime: after a close whose checkpoint
// fails mid-way, the log is still the source of truth: recovery does not
// trust the aborted generation and reads every written sector back. The
// engine's share (Close absorbs the failure, commits nothing and returns the
// time the landed chunk took) is logcore's TestCloseFailedCheckpointCostsTime.
func TestCloseFailedCheckpointConsumesTime(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 64; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint's second chunk page (the second distinct program
	// target after arming) enters a transient episode far longer than the
	// retry budget: one chunk lands, then the attempt fails permanently.
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 2, Times: 100,
	})
	plan.Arm(f.Device())
	done, err := f.Close(now)
	plan.Disarm(f.Device())
	if err != nil || f.Stats().CheckpointErrors != 1 {
		t.Fatalf("setup: Close returned %v with %d checkpoint errors; want nil and the aborted checkpoint", err, f.Stats().CheckpointErrors)
	}
	f2, rnow, err := Recover(testConfig(), f.Device(), nil, done)
	if err != nil {
		t.Fatalf("recovery after failed checkpoint close: %v", err)
	}
	if f2.Stats().RecoveryTailBounded {
		t.Fatal("recovery trusted an aborted checkpoint generation")
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 64; lba++ {
		if _, err := f2.Read(rnow, lba, buf); err != nil {
			t.Fatalf("read lba %d after recovery: %v", lba, err)
		}
		if string(buf) != string(sectorPattern(ss, lba, 1)) {
			t.Fatalf("lba %d corrupted after recovery", lba)
		}
	}
}

// closeLeakFTL builds the reproduction geometry — 16 segments of 64 512-byte
// pages, scrubbing every scrub of virtual time (0: never) — and overwrites
// at random until the pool is down to the cleaning reserve.
func closeLeakFTL(t *testing.T, seed uint64, scrub sim.Duration) (*FTL, sim.Time) {
	t.Helper()
	nc := testConfig().Nand
	nc.PagesPerSegment, nc.Segments = 64, 16
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.ScrubInterval = scrub
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	now := sim.Time(0)
	for f.FreeSegments() > cfg.ReserveSegments {
		lba := rng.Int63n(f.Sectors())
		if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	return f, now
}

// TestCloseStartsNoBackgroundWork: the close-time checkpoint's chunks cross
// into a fresh segment, the head advance on which ioSnap arms its scrubber;
// with a scrub due at every advance, Close still arms none. (That the
// engine queues no clean there is logcore's TestCloseQueuesNoWork.)
func TestCloseStartsNoBackgroundWork(t *testing.T) {
	f, now := closeLeakFTL(t, 1, sim.Nanosecond)
	now = f.Scheduler().Drain(now)
	// Park the head two pages short of its segment's end, so the
	// checkpoint's first chunks cross into a fresh segment.
	for lba := int64(0); f.HeadIdx < f.Config().Nand.PagesPerSegment-2; lba++ {
		var err error
		if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if f.ScrubActive() || f.Stats().ScrubPasses == 0 {
		t.Fatalf("setup: scrubbing %v after %d passes; want passes run and none in flight", f.ScrubActive(), f.Stats().ScrubPasses)
	}
	head := f.HeadSeg
	if _, err := f.Close(now); err != nil {
		t.Fatal(err)
	}
	if f.HeadSeg == head {
		t.Fatal("setup: the checkpoint did not cross a segment boundary")
	}
	if f.ScrubActive() || f.Scheduler().Pending() != 0 {
		t.Fatalf("Close left scrubbing %v and %d tasks queued", f.ScrubActive(), f.Scheduler().Pending())
	}
}

// TestCloseSupersedesCheckpointInFlight: Close with a background checkpoint
// in flight — only queued, or one quantum in — leaves ioSnap's CoW validity
// consistent, and the next mount is tail-bounded. The engine's share (one
// commit at the Seq Close found, the abandoned chunks unpinned) is logcore's
// TestCloseSupersedesBackgroundCheckpoint.
func TestCloseSupersedesCheckpointInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		quantum bool // run the task's first quantum before Close
	}{{"queued", false}, {"mid-task", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.GCChunk = 2
			f, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := driveScenario(t, f, 17, 300)
			if !f.StartCheckpoint(s.now) {
				t.Fatal("setup: StartCheckpoint scheduled nothing")
			}
			if tc.quantum {
				f.Sched.RunUntil(s.now)
			}
			if landed := len(f.CkptInflight); tc.quantum != (landed > 0) || f.Sched.Pending() == 0 {
				t.Fatalf("setup: %d chunks landed, %d tasks pending before Close", landed, f.Sched.Pending())
			}
			done, err := f.Close(s.now)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("after Close: %v", err)
			}
			r, _, err := Recover(f.Config(), f.Device(), nil, done)
			if err != nil {
				t.Fatal(err)
			}
			if st := r.Stats(); !st.RecoveryTailBounded || st.RecoveryFallbacks != 0 {
				t.Fatalf("remount: tail-bounded %v, %d fallbacks; want a tail-bounded mount", st.RecoveryTailBounded, st.RecoveryFallbacks)
			}
		})
	}
}

// TestCloseCancelsCleanInFlight: a paced clean that is mid-victim when Close
// arrives ends at once, and its task — should anyone still run the
// scheduler — finds the log closed and does nothing.
func TestCloseCancelsCleanInFlight(t *testing.T) {
	f, now := closeLeakFTL(t, 3, 0)
	if !f.CleaningActive() {
		t.Fatal("setup: want a clean in flight")
	}
	now, err := f.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	if f.CleaningActive() {
		t.Fatal("Close left a clean in flight")
	}
	before := f.Device().Stats()
	f.Scheduler().Drain(now)
	if after := f.Device().Stats(); after != before {
		t.Fatalf("cancelled clean still touched the device: %+v -> %+v", before, after)
	}
	f2, _, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.CheckInvariants(); err != nil {
		t.Fatalf("device inconsistent after a clean cancelled by Close: %v", err)
	}
}

// TestCloseEndsBackgroundScans: a rate-limited activation and export still
// scanning when Close arrives used to go on scanning the closed device on
// their next quanta, and the activation published a view. Now their next
// quantum ends them with ErrClosed: draining the scheduler touches the
// device no more, publishes no view and drops the activation's epoch.
func TestCloseEndsBackgroundScans(t *testing.T) {
	f := newTestFTL(t)
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 64; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// One segment scan per work period, then a long sleep.
	limit := ratelimit.WorkSleep{
		Work:  sim.Duration(f.Config().Nand.PagesPerSegment) * f.Config().Nand.OOBScanPerPage,
		Sleep: sim.Millisecond,
	}
	act, now, err := f.Activate(now, snap.ID, limit, false)
	if err != nil {
		t.Fatal(err)
	}
	x, now, err := f.BeginExport(now, ExportOpts{Snapshot: snap.ID, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	f.Sched.Schedule(now, x)
	f.Sched.RunUntil(now)
	if act.Ready() || x.Done() {
		t.Fatal("setup: a scan finished before Close")
	}
	if now, err = f.Close(now); err != nil {
		t.Fatal(err)
	}
	before, views := f.Device().Stats(), len(f.views)
	f.Sched.Drain(now)
	if after := f.Device().Stats(); after != before {
		t.Fatalf("scans went on after Close: %+v -> %+v", before, after)
	}
	if len(f.views) != views {
		t.Fatalf("an activation published a view after Close: %d -> %d views", views, len(f.views))
	}
	if !errors.Is(act.Err(), ErrClosed) || !errors.Is(x.Err(), ErrClosed) {
		t.Fatalf("activation ended with %v, export with %v; want ErrClosed", act.Err(), x.Err())
	}
	if f.vstore.Exists(act.viewEpoch) {
		t.Fatal("the activation's epoch outlived it")
	}
}
