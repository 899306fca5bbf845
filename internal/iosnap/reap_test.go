package iosnap

import (
	"errors"
	"slices"
	"testing"
	"time"

	"iosnap/internal/bitmap"
	"iosnap/internal/codec"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// histRun drives an FTL and keeps the content model every snapshot must
// read back: the active view's, and each live snapshot's as frozen.
type histRun struct {
	t   *testing.T
	f   *FTL
	now sim.Time
	ver uint64
	m   *model.Model[SnapshotID]
}

func newHistRun(t *testing.T, cfg Config) *histRun {
	t.Helper()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &histRun{t: t, f: f, m: model.New[SnapshotID]()}
}

// write overwrites lbas in the active view (vw nil) or in a writable view,
// whose image im it updates.
func (h *histRun) write(vw *View, im *model.Image, lbas ...int64) {
	h.t.Helper()
	h.ver++
	for _, lba := range lbas {
		h.f.Sched.RunUntil(h.now)
		data := model.Sectors(h.f.SectorSize(), lba, 1, h.ver)
		var err error
		if vw == nil {
			h.now, err = h.f.Write(h.now, lba, data)
			h.m.Active.Write(lba, h.ver)
		} else {
			h.now, err = vw.Write(h.now, lba, data)
			im.Write(lba, h.ver)
		}
		if err != nil {
			h.t.Fatal(err)
		}
	}
}

func span(lo, hi int64) []int64 {
	var out []int64
	for lba := lo; lba < hi; lba++ {
		out = append(out, lba)
	}
	return out
}

func (h *histRun) create() *Snapshot {
	h.t.Helper()
	s, now, err := h.f.CreateSnapshot(h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	h.now = now
	h.m.Freeze(s.ID, h.m.Active)
	return s
}

// createFrom snapshots a writable view whose image is im.
func (h *histRun) createFrom(vw *View, im *model.Image) *Snapshot {
	h.t.Helper()
	s, now, err := vw.CreateSnapshot(h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	h.now = now
	h.m.Freeze(s.ID, im)
	return s
}

func (h *histRun) activate(id SnapshotID, writable bool) *View {
	h.t.Helper()
	vw, now, err := h.f.ActivateSync(h.now, id, noLimit, writable)
	if err != nil {
		h.t.Fatal(err)
	}
	h.now = now
	return vw
}

func (h *histRun) deactivate(vw *View) {
	h.t.Helper()
	now, err := vw.Deactivate(h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	h.now = now
}

func (h *histRun) del(id SnapshotID) {
	h.t.Helper()
	now, err := h.f.DeleteSnapshot(h.now, id)
	if err != nil {
		h.t.Fatal(err)
	}
	h.now = now
	h.m.Delete(id)
}

// checkpoint commits a background checkpoint.
func (h *histRun) checkpoint() {
	h.t.Helper()
	if !h.f.StartCheckpoint(h.now) {
		h.t.Fatal("StartCheckpoint refused")
	}
	h.now = h.f.Sched.Drain(h.now)
}

// verify reads the active view and every live snapshot of f back against
// the model, through a fresh activation each.
func (h *histRun) verify(f *FTL, now sim.Time, when string) sim.Time {
	h.t.Helper()
	verifyImage(h.t, when+": active view", h.m.Active, f.SectorSize(), f.Read, now)
	return verifySnapshots(h.t, f, h.m, now)
}

// remount closes the FTL and mounts two copies of its image, tail-bounded
// and by the full scan, checks they agree and hold, and returns them.
func (h *histRun) remount() (tail, full *FTL, now sim.Time) {
	h.t.Helper()
	now, err := h.f.Close(h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	devA, devB := duplicateDevice(h.t, h.f.Device())
	tail, _, err = Recover(h.f.Config(), devA, nil, now)
	if err != nil {
		h.t.Fatal(err)
	}
	if !tail.Stats().RecoveryTailBounded {
		h.t.Fatal("the closed device did not mount tail-bounded")
	}
	full, _, err = RecoverFullScan(h.f.Config(), devB, nil, now)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := CompareRecovered(tail, full); err != nil {
		h.t.Fatalf("tail-bounded and full-scan mounts differ: %v", err)
	}
	for _, r := range []*FTL{tail, full} {
		if err := r.CheckInvariants(); err != nil {
			h.t.Fatal(err)
		}
	}
	return tail, full, now
}

// bounded asserts that what the FTL remembers of its history, and what a
// checkpoint of it serializes, follows the live snapshots and views.
func bounded(t *testing.T, f *FTL, when string) {
	t.Helper()
	limit := 2 * (len(f.Snapshots()) + len(f.views) + 1)
	perEpoch := 8 + 8 + 1 + 4 + int(f.vstore.TotalPages())*(8+int(f.vstore.BitsPerPage()/8))
	for what, n := range map[string]int{
		"validity epochs":  len(f.vstore.Epochs()),
		"snapshot records": f.tree.Len(),
	} {
		if n > limit {
			t.Fatalf("%s: %d %s, want at most %d for %d live snapshots and %d views",
				when, n, what, limit, len(f.Snapshots()), len(f.views))
		}
	}
	if n := len(f.encodeValidSection()); n > 12+limit*perEpoch {
		t.Fatalf("%s: validity section of %d bytes, want at most %d", when, n, 12+limit*perEpoch)
	}
}

// historyPins keeps every epoch it was shown from being reaped, as exports
// of each one that never finished would: each pin is an inert scan of one
// epoch. It lets a test build a history that deletes and deactivations
// cannot reap.
type historyPins struct {
	f    *FTL
	pins map[bitmap.Epoch]*scan
}

func newHistoryPins(f *FTL) *historyPins {
	return &historyPins{f: f, pins: make(map[bitmap.Epoch]*scan)}
}

// pin pins every epoch f holds that is not pinned yet. Call it after each
// operation that creates an epoch, before the one that kills it.
func (p *historyPins) pin() {
	for _, e := range p.f.vstore.Epochs() {
		if p.pins[e] == nil {
			p.pins[e] = &scan{f: p.f, epoch: e, done: true}
			p.f.scans = append(p.f.scans, p.pins[e])
		}
	}
}

// release drops every pin at once: the last one ends as a scan ends, which
// reaps what the pins kept.
func (p *historyPins) release(now sim.Time) {
	var last *scan
	p.f.scans = slices.DeleteFunc(p.f.scans, func(s *scan) bool {
		if p.pins[s.epoch] != s {
			return false
		}
		if last == nil {
			last = s
			return false
		}
		return true
	})
	clear(p.pins)
	if last != nil {
		last.end(now, nil)
	}
}

// TestCheckpointReapsHistory: 400 create → activate → deactivate → delete
// cycles, every epoch pinned as it is created, leave 800 dead epochs behind.
// When the pins go, the end of the last one forgets them; the checkpoint
// after it and both recovery paths, which agree on the result, hold only
// what is live.
func TestCheckpointReapsHistory(t *testing.T) {
	cfg := testConfig()
	// Every snapshot operation leaves a note that stays valid for good:
	// 1 600 pages by the end.
	cfg.Nand.PagesPerSegment, cfg.Nand.Segments = 64, 128
	cfg = DefaultConfig(cfg.Nand)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.SelectiveScan = true
	h := newHistRun(t, cfg)
	pins := newHistoryPins(h.f)
	rng := sim.NewRNG(4)
	var kept []SnapshotID
	for cycle := 0; cycle < 400; cycle++ {
		lbas := make([]int64, 20)
		for i := range lbas {
			lbas[i] = rng.Int63n(300)
		}
		h.write(nil, nil, lbas...)
		s := h.create()
		pins.pin()
		vw := h.activate(s.ID, false)
		pins.pin()
		h.deactivate(vw)
		if kept = append(kept, s.ID); len(kept) > 2 {
			h.del(kept[0])
			kept = kept[1:]
		}
	}
	f := h.f
	if n := len(f.vstore.Epochs()); n < 800 {
		t.Fatalf("%d epochs before the pins went, want the whole history", n)
	}
	pins.release(h.now)
	h.checkpoint()
	bounded(t, f, "after the checkpoint")
	reaped := int(f.epochCounter) - len(f.vstore.Epochs())
	aliasBytes := 16 * len(f.vstore.Aliases())
	if aliasBytes == 0 || aliasBytes > 16*reaped {
		t.Fatalf("alias table of %d bytes for %d reaped epochs", aliasBytes, reaped)
	}
	t.Logf("reaped %d of %d epochs; alias table %d B (%.1f B per reaped epoch); validity section %d B",
		reaped, f.epochCounter, aliasBytes, float64(aliasBytes)/float64(reaped), len(f.encodeValidSection()))
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.now = h.verify(f, h.now, "after the checkpoint")

	tail, full, now := h.remount()
	for _, r := range []*FTL{tail, full} {
		bounded(t, r, "after remounting")
		h.verify(r, now, "after remounting")
	}
}

// TestDeactivateReapsPinnedSnapshot: a snapshot deleted while a view of it
// is open stays, pinned by the view, and so does the view's epoch; closing
// the view reaps both, with no checkpoint in between.
func TestDeactivateReapsPinnedSnapshot(t *testing.T) {
	h := newHistRun(t, ckptConfig())
	h.write(nil, nil, span(0, 30)...)
	s1 := h.create()
	h.write(nil, nil, span(10, 20)...)
	s2 := h.create()
	view := h.activate(s1.ID, false)
	viewEpoch := view.Epoch()
	h.del(s1.ID)
	f := h.f
	if r, ok := f.tree.Lookup(s1.ID); !ok || !r.Deleted || !f.vstore.Exists(s1.Epoch) || !f.vstore.Exists(viewEpoch) {
		t.Fatal("the snapshot an open view reads was reaped")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkpoints := f.Stats().Checkpoints
	h.deactivate(view)
	if f.Stats().Checkpoints != checkpoints {
		t.Fatal("a checkpoint ran")
	}
	for _, e := range []bitmap.Epoch{s1.Epoch, viewEpoch} {
		if f.vstore.Exists(e) {
			t.Fatalf("epoch %d outlived the view that pinned it", e)
		}
	}
	if _, ok := f.tree.Lookup(s1.ID); ok {
		t.Fatal("the deleted snapshot's record outlived the view")
	}
	if e, ok := f.vstore.Resolve(s1.Epoch); !ok || e != s2.Epoch {
		t.Fatalf("epoch %d resolves to %d (%v), want its heir %d", s1.Epoch, e, ok, s2.Epoch)
	}
	if _, ok := f.vstore.Resolve(viewEpoch); ok {
		t.Fatal("the dropped view epoch resolves")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.verify(f, h.now, "after the view closed")
}

// TestReapCases: one shape of history per case, checked after a checkpoint
// on the live FTL and after a tail-bounded and a full-scan mount.
func TestReapCases(t *testing.T) {
	cfg := ckptConfig()
	cfg.SelectiveScan = true

	t.Run("spliced-chain", func(t *testing.T) {
		// S1 ← S2 ← S3 on the active lineage; deleting S2 splices its epoch
		// into S3's, which adopts the blocks stamped with it.
		h := newHistRun(t, cfg)
		h.write(nil, nil, span(0, 40)...)
		s1 := h.create()
		h.write(nil, nil, span(10, 30)...)
		s2 := h.create()
		h.write(nil, nil, span(20, 50)...)
		s3 := h.create()
		h.write(nil, nil, span(0, 10)...)
		h.del(s2.ID)
		check := func(f *FTL, when string) {
			t.Helper()
			if _, ok := f.tree.Lookup(s2.ID); ok || f.vstore.Exists(s2.Epoch) {
				t.Fatalf("%s: the deleted chain node is still there", when)
			}
			if e, ok := f.vstore.Resolve(s2.Epoch); !ok || e != s3.Epoch {
				t.Fatalf("%s: epoch %d resolves to %d (%v), want its heir %d", when, s2.Epoch, e, ok, s3.Epoch)
			}
			r3, _ := f.tree.Lookup(s3.ID)
			if p, _ := f.vstore.Parent(s3.Epoch); r3.Parent == nil || r3.Parent.ID != s1.ID || p != s1.Epoch {
				t.Fatalf("%s: snapshot 3 not re-parented to snapshot 1", when)
			}
		}
		h.checkpoint()
		check(h.f, "after the checkpoint")
		h.now = h.verify(h.f, h.now, "after the checkpoint")
		tail, full, now := h.remount()
		for _, r := range []*FTL{tail, full} {
			check(r, "after remounting")
			h.verify(r, now, "after remounting")
		}
	})

	t.Run("branching-stays", func(t *testing.T) {
		// S1 has two live children — S2 from a writable view of it, S3 from
		// the active lineage — so its deleted epoch and record stay.
		h := newHistRun(t, cfg)
		h.write(nil, nil, span(0, 40)...)
		s1 := h.create()
		vm := h.m.Active.Fork()
		vw := h.activate(s1.ID, true)
		h.write(vw, vm, span(5, 15)...)
		s2 := h.createFrom(vw, vm)
		h.deactivate(vw)
		h.write(nil, nil, span(30, 60)...)
		s3 := h.create()
		h.del(s1.ID)
		check := func(f *FTL, when string) {
			t.Helper()
			r1, ok := f.tree.Lookup(s1.ID)
			if !ok || !r1.Deleted || !f.vstore.Exists(s1.Epoch) {
				t.Fatalf("%s: the branching tombstone was reaped", when)
			}
			for _, id := range []SnapshotID{s2.ID, s3.ID} {
				if r, _ := f.tree.Lookup(id); r.Parent != r1 {
					t.Fatalf("%s: snapshot %d lost its parent", when, id)
				}
			}
		}
		h.checkpoint()
		check(h.f, "after the checkpoint")
		h.now = h.verify(h.f, h.now, "after the checkpoint")
		tail, full, now := h.remount()
		for _, r := range []*FTL{tail, full} {
			check(r, "after remounting")
			h.verify(r, now, "after remounting")
		}
	})

	t.Run("view-parent-pinned", func(t *testing.T) {
		// S2 is frozen from a writable view of S1; once that view is gone a
		// read-only view of S2 is S2's epoch's only child. Deleting S2 under
		// the open view leaves it pinned; closing the view frees it.
		h := newHistRun(t, cfg)
		h.write(nil, nil, span(0, 40)...)
		s1 := h.create()
		vm := h.m.Active.Fork()
		vw := h.activate(s1.ID, true)
		h.write(vw, vm, span(0, 20)...)
		s2 := h.createFrom(vw, vm)
		h.deactivate(vw)
		view := h.activate(s2.ID, false)
		want := h.m.Snapshot(s2.ID)
		h.del(s2.ID)
		h.checkpoint()
		if r, ok := h.f.tree.Lookup(s2.ID); !ok || !r.Deleted || !h.f.vstore.Exists(s2.Epoch) {
			t.Fatal("the open view's snapshot was reaped")
		}
		if err := h.f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		verifyImage(t, "the open view", want, h.f.SectorSize(), view.Read, h.now)
		h.deactivate(view)
		h.checkpoint()
		gone := func(f *FTL, when string) {
			t.Helper()
			if _, ok := f.tree.Lookup(s2.ID); ok || f.vstore.Exists(s2.Epoch) {
				t.Fatalf("%s: the unpinned snapshot was not reaped", when)
			}
		}
		gone(h.f, "after the view closed")
		tail, full, now := h.remount()
		for _, r := range []*FTL{tail, full} {
			gone(r, "after remounting")
			h.verify(r, now, "after remounting")
		}
	})

	t.Run("reaped-id-stays-deleted", func(t *testing.T) {
		// S2, the highest ID, is frozen from a view and deleted: no record
		// of it survives the checkpoint, yet its ID answers "deleted", before
		// and after a restart, and is never handed out again.
		h := newHistRun(t, cfg)
		h.write(nil, nil, span(0, 30)...)
		s1 := h.create()
		vm := h.m.Active.Fork()
		vw := h.activate(s1.ID, true)
		h.write(vw, vm, span(0, 10)...)
		s2 := h.createFrom(vw, vm)
		h.deactivate(vw)
		h.del(s2.ID)
		h.checkpoint()
		check := func(f *FTL, now sim.Time, when string) {
			t.Helper()
			if _, ok := f.tree.Lookup(s2.ID); ok {
				t.Fatalf("%s: snapshot %d was not reaped", when, s2.ID)
			}
			_, err1 := f.DeleteSnapshot(now, s2.ID)
			_, _, err2 := f.ActivateSync(now, s2.ID, noLimit, false)
			_, _, err3 := f.BeginExport(now, ExportOpts{Snapshot: s2.ID})
			_, _, err4 := f.BeginExport(now, ExportOpts{Snapshot: s1.ID, Base: s2.ID})
			for i, err := range []error{err1, err2, err3, err4} {
				if !errors.Is(err, ErrSnapshotDeleted) {
					t.Fatalf("%s: call %d on the reaped ID: %v, want ErrSnapshotDeleted", when, i+1, err)
				}
			}
			if _, err := f.DeleteSnapshot(now, 99); !errors.Is(err, ErrNoSuchSnapshot) {
				t.Fatalf("%s: an ID never handed out: %v", when, err)
			}
		}
		check(h.f, h.now, "after the checkpoint")
		tail, full, now := h.remount()
		for _, r := range []*FTL{tail, full} {
			check(r, now, "after remounting")
			s, _, err := r.CreateSnapshot(now)
			if err != nil {
				t.Fatal(err)
			}
			if s.ID != s2.ID+1 {
				t.Fatalf("the next snapshot after remounting got ID %d, want %d", s.ID, s2.ID+1)
			}
		}
	})
}

// TestReapedMountsMatchFullScan: a random mix of writes, snapshot creates
// and deletes, writable and read-only views, snapshots of views and
// background activations, under periodic checkpoints of whatever the moment
// holds — pinned epochs, dying ones, history reaped as it died. At every
// crash point a tail-bounded mount and a full scan of the same image must
// agree, hold their invariants and read every snapshot back.
func TestReapedMountsMatchFullScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := tortureConfig()
		cfg.CheckpointInterval = 300 * sim.Microsecond
		cfg.SelectiveScan = seed%2 == 0
		h := newHistRun(t, cfg)
		rng := sim.NewRNG(seed)
		var (
			view   *View
			vm     *model.Image
			act    *Activation
			tail   int
			reaped bool
		)
		pick := func() SnapshotID {
			ids := make([]SnapshotID, 0, len(h.m.IDs()))
			for _, s := range h.f.Snapshots() {
				ids = append(ids, s.ID)
			}
			return ids[rng.Intn(len(ids))]
		}
		for step := 0; step < 900; step++ {
			h.f.Sched.RunUntil(h.now)
			if act != nil && act.Ready() {
				vw, err := act.View()
				if err != nil {
					t.Fatal(err)
				}
				h.deactivate(vw)
				act = nil
			}
			live := len(h.f.Snapshots())
			switch op := rng.Intn(20); {
			case op < 8:
				h.write(nil, nil, rng.Int63n(60))
			case op < 10 && live < 5:
				h.create()
			case op < 12 && live > 1:
				h.del(pick())
			case op < 13 && view == nil && live > 0:
				id := pick()
				vm = h.m.Snapshot(id).Fork()
				view = h.activate(id, rng.Intn(2) == 0)
			case op < 15 && view != nil && view.Writable():
				h.write(view, vm, rng.Int63n(60))
			case op < 16 && view != nil && view.Writable() && live < 5:
				h.createFrom(view, vm)
			case op < 17 && view != nil:
				h.deactivate(view)
				view = nil
			case op < 18 && act == nil && live > 0:
				var err error
				if act, h.now, err = h.f.Activate(h.now, pick(), actLimit, false); err != nil {
					t.Fatal(err)
				}
			}
			if step%150 != 149 {
				continue
			}
			// Crash here: mount two copies of the image both ways.
			devA, devB := duplicateDevice(t, h.f.Device())
			a, nowA, err := Recover(cfg, devA, nil, h.now)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			b, _, err := RecoverFullScan(cfg, devB, nil, h.now)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := CompareRecovered(a, b); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, r := range []*FTL{a, b} {
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if a.Stats().RecoveryTailBounded {
				tail++
			}
			reaped = reaped || len(a.vstore.Aliases()) > 0
			h.verify(a, nowA, "after a crash")
		}
		if err := h.f.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tail == 0 || !reaped || h.f.Stats().Checkpoints < 5 {
			t.Fatalf("seed %d: degenerate run: %d tail-bounded mounts, aliases %v, %d checkpoints", seed, tail, reaped, h.f.Stats().Checkpoints)
		}
	}
}

// TestFullHistoryCheckpointMountsAndReaps: a checkpoint that carries every
// epoch ever created — what a checkpoint taken while every epoch is still
// read holds — still mounts tail-bounded, and the mount reaps it.
func TestFullHistoryCheckpointMountsAndReaps(t *testing.T) {
	h := newHistRun(t, ckptConfig())
	// Pin every epoch as it is created, as if the reaper did not exist.
	pins := newHistoryPins(h.f)
	var kept []SnapshotID
	for cycle := 0; cycle < 30; cycle++ {
		h.write(nil, nil, int64(cycle%7), int64(20+cycle%11))
		s := h.create()
		pins.pin()
		vw := h.activate(s.ID, false)
		pins.pin()
		h.deactivate(vw)
		if kept = append(kept, s.ID); len(kept) > 2 {
			h.del(kept[0])
			kept = kept[1:]
		}
	}
	f := h.f
	history := len(f.vstore.Epochs())
	h.checkpoint()
	pins.release(h.now)
	recs, err := decodeCkptValid(anchoredSections(t, f, h.now), f.vstore.BitsPerPage())
	if err != nil || len(recs) != history || history < 60 {
		t.Fatalf("the checkpoint holds %d of %d epochs (%v)", len(recs), history, err)
	}

	// Crash without Close: the full-history generation is what mounts.
	devA, devB := duplicateDevice(t, f.Device())
	tail, now, err := Recover(f.Config(), devA, nil, h.now)
	if err != nil {
		t.Fatal(err)
	}
	if !tail.Stats().RecoveryTailBounded {
		t.Fatal("a full-history checkpoint did not mount tail-bounded")
	}
	full, _, err := RecoverFullScan(f.Config(), devB, nil, h.now)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareRecovered(tail, full); err != nil {
		t.Fatal(err)
	}
	if err := tail.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bounded(t, tail, "after mounting a full-history checkpoint")
	h.verify(tail, now, "after mounting a full-history checkpoint")
}

// TestTreeStreamWithoutAliasSection: a tree stream is a tree section and an
// alias section; one without the alias section — as checkpoints were
// written before it existed — is refused, so its mount falls back to the
// full scan.
func TestTreeStreamWithoutAliasSection(t *testing.T) {
	var w codec.Writer
	w.U64(3) // counter
	w.U64(3) // active epoch
	w.U32(0) // snapshots
	w.U32(0) // segment table
	if st, err := decodeCkptTree([]logcore.Section{{Kind: ckptSecTree, Data: w.B}}); err == nil {
		t.Fatalf("decoded %+v from a tree stream without its alias section", st)
	}
	var a codec.Writer
	a.U64(9)
	a.U32(1)
	a.U64(4)
	a.U64(7)
	st, err := decodeCkptTree([]logcore.Section{{Kind: ckptSecTree, Data: w.B}, {Kind: ckptSecAlias, Data: a.B}})
	if err != nil || st.nextID != 9 || len(st.aliases) != 1 || st.aliases[0] != (bitmap.Reaped{Epoch: 4, Heir: 7}) {
		t.Fatalf("decoded %+v, %v", st, err)
	}
}

// buildOneSnapshot is the smallest device with history: some writes and
// snapshot 1 freezing epoch 1.
func buildOneSnapshot(t testing.TB) *FTL {
	f, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for lba := int64(0); lba < 8; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err = f.CreateSnapshot(now); err != nil {
		t.Fatal(err)
	}
	return f
}

// programAfterHead programs a page with header h at the head segment's next
// free page, as a crafted or damaged log might hold one.
func programAfterHead(t testing.TB, dev *nand.Device, seg int, h header.Header) {
	addr := dev.Addr(seg, dev.NextFreeInSegment(seg))
	if _, err := dev.ProgramPage(0, addr, make([]byte, dev.Config().SectorSize), h.Marshal()); err != nil {
		t.Fatal(err)
	}
}

// TestActivateNoteCycleRefused: an activate note naming the epoch of the
// very snapshot it activates would make that epoch its own parent; every
// walk up the epoch graph then loops for ever. Both recovery paths must
// refuse it, and promptly.
func TestActivateNoteCycleRefused(t *testing.T) {
	f := buildOneSnapshot(t)
	programAfterHead(t, f.Dev, f.HeadSeg, header.Header{Type: header.TypeSnapActivate, LBA: 1, Epoch: 1, Seq: f.Seq + 10})
	for name, mount := range map[string]func(Config, *nand.Device, *sim.Scheduler, sim.Time) (*FTL, sim.Time, error){
		"Recover": Recover, "RecoverFullScan": RecoverFullScan,
	} {
		done := make(chan error, 1)
		go func() {
			_, _, err := mount(f.Config(), f.Dev, nil, 0)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s mounted a log whose epoch 1 is its own parent", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still running after 5 s: the epoch graph has a cycle", name)
		}
	}
}
