package iosnap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

func TestActivateEachOfFiveSnapshots(t *testing.T) {
	// The Figure 8 semantics: snapshots 1..5 with data written between,
	// every activation reproduces exactly the state at its create.
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	m := model.New[SnapshotID]()
	rng := sim.NewRNG(5)
	for s := 0; s < 5; s++ {
		for i := 0; i < 20; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(60)
			v := uint64(s*20 + i + 1)
			d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
			if err != nil {
				t.Fatal(err)
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
	}
	buf := make([]byte, ss)
	for _, id := range m.IDs() {
		frozen := m.Snapshot(id)
		view, d, err := f.ActivateSync(now, id, noLimit, false)
		if err != nil {
			t.Fatalf("activating snapshot %d: %v", id, err)
		}
		now = d
		// Every LBA, so the unwritten ones must read as zeros too.
		for lba := int64(0); lba < 60; lba++ {
			if _, err := view.Read(now, lba, buf); err != nil {
				t.Fatal(err)
			}
			if !model.Check(buf, lba, frozen.Version(lba)) {
				t.Fatalf("snapshot %d LBA %d does not hold version %d", id, lba, frozen.Version(lba))
			}
		}
		if view.MappedSectors() != len(frozen.LBAs()) {
			t.Fatalf("snapshot %d mapped %d, want %d", id, view.MappedSectors(), len(frozen.LBAs()))
		}
	}
}

func TestActivationErrors(t *testing.T) {
	f := newTestFTL(t)
	if _, _, err := f.ActivateSync(0, 42, noLimit, false); !errors.Is(err, ErrNoSuchSnapshot) {
		t.Fatalf("unknown snapshot: %v", err)
	}
}

func TestBackgroundActivation(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 30; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, _ := f.CreateSnapshot(now)
	act, now, err := f.Activate(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if act.Ready() {
		t.Fatal("activation ready before the scheduler ran")
	}
	if _, err := act.View(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("View before ready: %v", err)
	}
	end := f.Sched.Drain(now)
	if !act.Ready() {
		t.Fatal("activation not ready after drain")
	}
	view, err := act.View()
	if err != nil {
		t.Fatal(err)
	}
	_ = end
	if act.CompletedAt() < now {
		t.Fatalf("completion time %v before activation started at %v", act.CompletedAt(), now)
	}
	buf := make([]byte, ss)
	if _, err := view.Read(end, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 7, 1)) {
		t.Fatal("background-activated view wrong")
	}
}

func TestRateLimitedActivationIsSlower(t *testing.T) {
	mk := func(limit ratelimit.WorkSleep) sim.Duration {
		f := newTestFTL(nil2(t))
		ss := f.SectorSize()
		now := sim.Time(0)
		for lba := int64(0); lba < 50; lba++ {
			now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
		}
		snap, now, _ := f.CreateSnapshot(now)
		_, done, err := f.ActivateSync(now, snap.ID, limit, false)
		if err != nil {
			t.Fatal(err)
		}
		return done.Sub(now)
	}
	fast := mk(noLimit)
	slow := mk(ratelimit.WorkSleep{Work: 20 * sim.Microsecond, Sleep: 2 * sim.Millisecond})
	if slow < 4*fast {
		t.Fatalf("rate-limited activation %v not much slower than unthrottled %v", slow, fast)
	}
}

// nil2 lets mk above keep the test handle without shadow complaints.
func nil2(t *testing.T) *testing.T { return t }

func TestWritableViewAndTreeFork(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	now, _ = f.Write(now, 1, sectorPattern(ss, 1, 1))
	now, _ = f.Write(now, 2, sectorPattern(ss, 2, 1))
	s1, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Diverge the active branch.
	now, _ = f.Write(now, 1, sectorPattern(ss, 1, 2))
	s2, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Activate s1 writable; modify LBA 2; snapshot the view: a fork (the
	// paper's Figure 4: S3 hangs off S1, not S2).
	view, now, err := f.ActivateSync(now, s1.ID, noLimit, true)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Writable() {
		t.Fatal("view not writable")
	}
	now, err = view.Write(now, 2, sectorPattern(ss, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	s3, now, err := view.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Parent != s1 {
		t.Fatalf("fork parent = %v, want s1", s3.Parent)
	}
	if s2.Parent != s1 {
		t.Fatal("main branch parent wrong")
	}
	// Active device must be unaffected by view writes.
	buf := make([]byte, ss)
	if _, err := f.Read(now, 2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 2, 1)) {
		t.Fatal("view write leaked into active device")
	}
	// The forked snapshot activates to s1's state + the view's change.
	v3, now, err := f.ActivateSync(now, s3.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Read(now, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 1, 1)) {
		t.Fatal("fork saw main-branch overwrite")
	}
	if _, err := v3.Read(now, 2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 2, 7)) {
		t.Fatal("fork missing view write")
	}
}

func TestReadOnlyViewRejectsWrites(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, _ := f.Write(0, 0, sectorPattern(ss, 0, 1))
	s, now, _ := f.CreateSnapshot(now)
	view, now, err := f.ActivateSync(now, s.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Write(now, 0, make([]byte, ss)); !errors.Is(err, ErrReadOnlyView) {
		t.Fatalf("write to readable view: %v", err)
	}
	if _, _, err := view.CreateSnapshot(now); !errors.Is(err, ErrReadOnlyView) {
		t.Fatalf("snapshot of readable view: %v", err)
	}
}

func TestDeactivate(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, _ := f.Write(0, 0, sectorPattern(ss, 0, 1))
	s, now, _ := f.CreateSnapshot(now)
	view, now, err := f.ActivateSync(now, s.ID, noLimit, true)
	if err != nil {
		t.Fatal(err)
	}
	now, err = view.Deactivate(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Read(now, 0, make([]byte, ss)); !errors.Is(err, ErrViewClosed) {
		t.Fatalf("read after deactivate: %v", err)
	}
	if _, err := view.Deactivate(now); !errors.Is(err, ErrViewClosed) {
		t.Fatalf("double deactivate: %v", err)
	}
	if len(f.views) != 1 {
		t.Fatalf("views = %d, want only active", len(f.views))
	}
}

func TestActivatedTreeIsCompact(t *testing.T) {
	// Table 3's observation: the bulk-loaded activated tree is smaller than
	// the organically grown active tree holding the same translations.
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	rng := sim.NewRNG(77)
	perm := rng.Perm(120)
	for _, p := range perm {
		f.Sched.RunUntil(now)
		d, err := f.Write(now, int64(p), sectorPattern(ss, int64(p), 1))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	s, now, _ := f.CreateSnapshot(now)
	activeBytes := f.ActiveMapMemory()
	view, _, err := f.ActivateSync(now, s.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if view.MappedSectors() != 120 {
		t.Fatalf("view mapped %d", view.MappedSectors())
	}
	if view.MapMemory() >= activeBytes {
		t.Fatalf("activated tree %d B not smaller than active tree %d B",
			view.MapMemory(), activeBytes)
	}
}

func TestActivationDuringChurnWithGC(t *testing.T) {
	// The hard case: a background activation races foreground writes and
	// segment cleaning. The finished view must still be exactly the
	// snapshot state.
	for _, seed := range []uint64{3, 11, 29} {
		f := newTestFTL(t)
		ss := f.SectorSize()
		now := sim.Time(0)
		rng := sim.NewRNG(seed)
		active := model.NewImage()
		for i := 0; i < 120; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(80)
			v := uint64(i + 1)
			d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
			if err != nil {
				t.Fatal(err)
			}
			active.Write(lba, v)
			now = d
		}
		snap, d, err := f.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		frozen := active.Fork()
		// Start a throttled activation so churn interleaves with the scan.
		act, d2, err := f.Activate(now, snap.ID, ratelimit.WorkSleep{Work: 5 * sim.Microsecond, Sleep: 300 * sim.Microsecond}, false)
		if err != nil {
			t.Fatal(err)
		}
		now = d2
		for i := 0; i < 250; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(80)
			d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, uint64(200+i)))
			if err != nil {
				t.Fatalf("seed %d churn write %d: %v", seed, i, err)
			}
			now = d
		}
		end := f.Sched.Drain(now)
		if !act.Ready() {
			t.Fatalf("seed %d: activation never finished", seed)
		}
		view, err := act.View()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f.Stats().GCRuns == 0 {
			t.Fatalf("seed %d: churn produced no cleaning; test is vacuous", seed)
		}
		verifyImage(t, fmt.Sprintf("seed %d: snapshot under concurrent GC", seed), frozen, ss, view.Read, end)
		if view.MappedSectors() != len(frozen.LBAs()) {
			t.Fatalf("seed %d: view mapped %d, want %d", seed, view.MappedSectors(), len(frozen.LBAs()))
		}
	}
}

// TestParallelActivations exercises the paper's "no limit on the number of
// snapshots activated in parallel" claim: two background activations run
// concurrently and both produce correct views.
func TestParallelActivations(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	// Snapshot A at version 1, snapshot B at version 2.
	for lba := int64(0); lba < 20; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snapA, now, _ := f.CreateSnapshot(now)
	for lba := int64(0); lba < 20; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	snapB, now, _ := f.CreateSnapshot(now)
	for lba := int64(0); lba < 20; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 3))
	}

	limit := ratelimit.WorkSleep{Work: 10 * sim.Microsecond, Sleep: 200 * sim.Microsecond}
	actA, now, err := f.Activate(now, snapA.ID, limit, false)
	if err != nil {
		t.Fatal(err)
	}
	actB, now, err := f.Activate(now, snapB.ID, limit, false)
	if err != nil {
		t.Fatal(err)
	}
	end := f.Sched.Drain(now)
	viewA, err := actA.View()
	if err != nil {
		t.Fatal(err)
	}
	viewB, err := actB.View()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 20; lba++ {
		if _, err := viewA.Read(end, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("view A LBA %d wrong", lba)
		}
		if _, err := viewB.Read(end, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 2)) {
			t.Fatalf("view B LBA %d wrong", lba)
		}
	}
}

// TestWriteAcrossSegmentBoundary checks multi-sector ops spanning the log
// head's segment switch.
func TestWriteAcrossSegmentBoundary(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	pps := f.cfg.Nand.PagesPerSegment
	now := sim.Time(0)
	// Fill the head segment to one page short of full.
	for i := 0; i < pps-1; i++ {
		d, err := f.Write(now, int64(i), sectorPattern(ss, int64(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	// A 4-sector op now spans the boundary.
	data := make([]byte, 4*ss)
	for i := 0; i < 4; i++ {
		copy(data[i*ss:], sectorPattern(ss, int64(100+i), 7))
	}
	now, err := f.Write(now, 100, data)
	if err != nil {
		t.Fatalf("boundary write: %v", err)
	}
	buf := make([]byte, ss)
	for i := int64(100); i < 104; i++ {
		if _, err := f.Read(now, i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, i, 7)) {
			t.Fatalf("LBA %d wrong after boundary write", i)
		}
	}
}

// TestLastSectorOfDevice exercises the device-edge addresses.
func TestLastSectorOfDevice(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	last := f.Sectors() - 1
	now, err := f.Write(0, last, sectorPattern(ss, last, 9))
	if err != nil {
		t.Fatalf("write to last sector: %v", err)
	}
	buf := make([]byte, ss)
	if _, err := f.Read(now, last, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, last, 9)) {
		t.Fatal("last sector round trip failed")
	}
	// One past the end must fail.
	if _, err := f.Write(now, last+1, make([]byte, ss)); err == nil {
		t.Fatal("write past end accepted")
	}
	// Multi-sector op overlapping the end must fail atomically.
	if _, err := f.Write(now, last, make([]byte, 2*ss)); err == nil {
		t.Fatal("op spanning device end accepted")
	}
}

func TestCancelActivation(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 40; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, _ := f.CreateSnapshot(now)
	act, now, err := f.Activate(now, snap.ID,
		ratelimit.WorkSleep{Work: 5 * sim.Microsecond, Sleep: sim.Millisecond}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Let a little of the scan happen, then cancel.
	f.Sched.RunUntil(now.Add(2 * sim.Millisecond))
	if err := act.Cancel(now.Add(2 * sim.Millisecond)); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Cancel: %v", err)
	}
	if !act.Ready() {
		t.Fatal("cancelled activation not done")
	}
	if _, err := act.View(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("View after cancel: %v", err)
	}
	// Remaining scheduled quanta must be harmless.
	end := f.Sched.Drain(now.Add(2 * sim.Millisecond))
	// The snapshot itself is unharmed: a fresh activation works.
	view, _, err := f.ActivateSync(end, snap.ID, noLimit, false)
	if err != nil {
		t.Fatalf("re-activation after cancel: %v", err)
	}
	if view.MappedSectors() != 40 {
		t.Fatalf("re-activated view mapped %d", view.MappedSectors())
	}
	// Cancelling a finished activation is a no-op returning its state.
	if err := act.Cancel(end); !errors.Is(err, ErrCancelled) {
		t.Fatal("double cancel changed state")
	}
}
