package iosnap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"iosnap/internal/bitmap"
	"iosnap/internal/blockdev"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// testConfig: 16 segments × 16 pages × 512 B with payload storage.
func testConfig() Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 16
	nc.Segments = 16
	nc.Channels = 2
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.BitmapPageBits = 64
	cfg.CoWPageCost = 10 * sim.Microsecond
	return cfg
}

func newTestFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sectorPattern(ss int, lba int64, version byte) []byte {
	b := make([]byte, ss)
	for i := range b {
		b[i] = byte(lba) ^ byte(lba>>8) ^ version ^ byte(i)
	}
	return b
}

// verifyImage fails t unless read, issued at now, returns im.
func verifyImage(t *testing.T, what string, im *model.Image, ss int, read func(sim.Time, int64, []byte) (sim.Time, error), now sim.Time) {
	t.Helper()
	if err := im.Verify(ss, model.At(read, now)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// verifySnapshots activates every live snapshot of m on f, fails t unless
// the view maps exactly its frozen sectors and reads them back, and
// deactivates it. It returns the time the last deactivation completed.
func verifySnapshots(t *testing.T, f *FTL, m *model.Model[SnapshotID], now sim.Time) sim.Time {
	t.Helper()
	for _, id := range m.IDs() {
		frozen := m.Snapshot(id)
		view, d, err := f.ActivateSync(now, id, noLimit, false)
		if err != nil {
			t.Fatalf("activating snapshot %d: %v", id, err)
		}
		if view.MappedSectors() != len(frozen.LBAs()) {
			t.Fatalf("snapshot %d maps %d sectors, froze %d", id, view.MappedSectors(), len(frozen.LBAs()))
		}
		verifyImage(t, fmt.Sprintf("snapshot %d", id), frozen, f.SectorSize(), view.Read, d)
		if now, err = view.Deactivate(d); err != nil {
			t.Fatalf("deactivating snapshot %d: %v", id, err)
		}
	}
	return now
}

// noLimit is an unthrottled activation budget.
var noLimit = ratelimit.WorkSleep{}

func TestBasicWriteRead(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 10; lba++ {
		d, err := f.Write(now, lba, sectorPattern(ss, lba, 1))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 10; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("LBA %d mismatch", lba)
		}
	}
}

func TestIOErrors(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	if _, err := f.Write(0, -1, make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative lba: %v", err)
	}
	if _, err := f.Read(0, 0, make([]byte, ss+1)); !errors.Is(err, ErrBadLength) {
		t.Fatalf("odd buffer: %v", err)
	}
	if _, err := f.Close(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 0, make([]byte, ss)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, _, err := f.CreateSnapshot(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: %v", err)
	}
}

// TestRangeCheckDoesNotWrap: lba+n wraps for an lba near MaxInt64, so a
// range check that adds lets the request through — a translation outside
// the device and a header carrying that LBA in the log. The check compares n
// with the room above lba instead, on the device and through a view.
func TestRangeCheckDoesNotWrap(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, err := f.Write(0, 3, sectorPattern(ss, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	vw, now, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, true)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, ss)
	for name, dev := range map[string]blockdev.Device{"device": f, "view": vw} {
		if _, err := dev.Write(now, math.MaxInt64, one); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s: write at MaxInt64: %v", name, err)
		}
		if _, err := dev.Read(now, math.MaxInt64, one); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s: read at MaxInt64: %v", name, err)
		}
		if _, err := dev.Read(now, f.Sectors()-1, make([]byte, 2*ss)); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%s: read across the end: %v", name, err)
		}
	}
	if _, err := f.Trim(now, math.MaxInt64-1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("trim ending at MaxInt64+1: %v", err)
	}
	if _, err := f.Trim(now, 1, math.MaxInt64); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("trim of MaxInt64 sectors: %v", err)
	}
	if f.MappedSectors() != 1 || vw.MappedSectors() != 1 {
		t.Fatalf("refused requests left %d / %d translations, want 1 / 1", f.MappedSectors(), vw.MappedSectors())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCreateIsCheap(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 50; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, done, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// One note page program (plus bus) regardless of data volume.
	lat := done.Sub(now)
	prog := testConfig().Nand.ProgramLatency
	if lat < prog || lat > 4*prog {
		t.Fatalf("snapshot create latency %v, want about one page program (%v)", lat, prog)
	}
	if snap.ID != 1 || snap.Epoch != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if f.ActiveEpoch() != 2 {
		t.Fatalf("active epoch = %d, want 2", f.ActiveEpoch())
	}
	if f.Tree().Len() != 1 {
		t.Fatal("tree missing node")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 20; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite half the LBAs after the snapshot.
	for lba := int64(0); lba < 10; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	view, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 20; lba++ {
		if _, err := view.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("snapshot LBA %d does not show version 1", lba)
		}
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		wantVer := byte(1)
		if lba < 10 {
			wantVer = 2
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, wantVer)) {
			t.Fatalf("active LBA %d does not show version %d", lba, wantVer)
		}
	}
}

func TestValidityCoWCountedAndCharged(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 30; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	_, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().CoWPageCopies != 0 {
		t.Fatal("creation itself should copy nothing")
	}
	before := now
	now, _ = f.Write(now, 0, sectorPattern(ss, 0, 2))
	st := f.Stats()
	if st.CoWPageCopies == 0 {
		t.Fatal("first overwrite after snapshot should CoW a bitmap page")
	}
	// The CoW cost must appear in the write latency.
	if lat := now.Sub(before); lat < f.cfg.CoWPageCost {
		t.Fatalf("write latency %v does not include CoW cost %v", lat, f.cfg.CoWPageCost)
	}
	// Overwriting an LBA whose bits live in the same (now-owned) page must
	// not copy again.
	copies := st.CoWPageCopies
	_, _ = f.Write(now, 1, sectorPattern(ss, 1, 2))
	// Note: the new block lands at the log head whose page may still CoW
	// once; allow at most one more, then demand stability.
	_, _ = f.Write(now, 2, sectorPattern(ss, 2, 2))
	after := f.Stats().CoWPageCopies
	if after > copies+2 {
		t.Fatalf("CoW copies kept growing: %d -> %d", copies, after)
	}
}

func TestSnapshotDelete(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 10; lba++ {
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	done, err := f.DeleteSnapshot(now, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Sub(now) > 4*testConfig().Nand.ProgramLatency {
		t.Fatal("delete should cost about one note program")
	}
	if _, _, err := f.ActivateSync(done, snap.ID, noLimit, false); !errors.Is(err, ErrSnapshotDeleted) {
		t.Fatalf("activation of deleted snapshot: %v", err)
	}
	if _, err := f.DeleteSnapshot(done, snap.ID); !errors.Is(err, ErrSnapshotDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := f.DeleteSnapshot(done, 999); !errors.Is(err, ErrNoSuchSnapshot) {
		t.Fatalf("delete unknown: %v", err)
	}
	if f.Tree().Live() != 0 {
		t.Fatal("live snapshot count wrong")
	}
}

func TestDeletedSnapshotBlocksReclaimed(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	// Fill a good chunk, snapshot, overwrite everything (snapshot holds the
	// old copies), delete the snapshot, churn: the cleaner must reclaim the
	// snapshot-only blocks and the device must not fill up.
	for lba := int64(0); lba < 100; lba++ {
		f.Sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < 100; lba++ {
		f.Sched.RunUntil(now)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, 2))
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	if now, err = f.DeleteSnapshot(now, snap.ID); err != nil {
		t.Fatal(err)
	}
	// Churn: without reclamation of the deleted snapshot's blocks this
	// would exhaust the device (100 live + 100 snapshot + churn > 256).
	for i := 0; i < 300; i++ {
		f.Sched.RunUntil(now)
		lba := int64(i % 100)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(3+i/100)))
		if err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		now = d
	}
	now = f.Sched.Drain(now)
	buf := make([]byte, ss)
	if _, err := f.Read(now, 0, buf); err != nil {
		t.Fatal(err)
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("no cleaning happened")
	}
}

func TestManySnapshotsDataPathUnaffected(t *testing.T) {
	// The paper's "unlimited snapshots" goal: the write path must not slow
	// down as dormant snapshots accumulate.
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	lat0 := sim.Duration(0)
	for round := 0; round < 30; round++ {
		start := now
		d, err := f.Write(now, int64(round%50), sectorPattern(ss, int64(round%50), byte(round)))
		if err != nil {
			t.Fatal(err)
		}
		now = d
		if round == 0 {
			lat0 = now.Sub(start)
		}
		if _, d2, err := f.CreateSnapshot(now); err != nil {
			t.Fatal(err)
		} else {
			now = d2
		}
	}
	if f.Tree().Live() != 30 {
		t.Fatalf("live snapshots = %d", f.Tree().Live())
	}
	// A write with 30 dormant snapshots: same order of magnitude (allow CoW
	// of at most a couple of bitmap pages on top).
	start := now
	if _, err := f.Write(now, 51, sectorPattern(ss, 51, 9)); err != nil {
		t.Fatal(err)
	}
	d, _ := f.Write(start, 51, sectorPattern(ss, 51, 9))
	lat := d.Sub(start)
	if lat > lat0+3*f.cfg.CoWPageCost+20*sim.Microsecond {
		t.Fatalf("write latency grew with snapshot count: %v vs %v", lat, lat0)
	}
}

func TestTrimRespectsSnapshots(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	now, _ = f.Write(now, 5, sectorPattern(ss, 5, 1))
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = f.Trim(now, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xFF}, ss)
	if _, err := f.Read(now, 5, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("trimmed sector still readable on active view")
		}
	}
	view, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Read(now, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 5, 1)) {
		t.Fatal("trim destroyed snapshotted data")
	}
}

func TestStatsAndAccessors(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, _ := f.Write(0, 0, make([]byte, ss))
	if _, err := f.Read(now, 0, make([]byte, ss)); err != nil {
		t.Fatal(err)
	}
	snap, now, _ := f.CreateSnapshot(now)
	_ = snap
	st := f.Stats()
	if st.UserWrites != 1 || st.UserReads != 1 || st.SnapshotCreates != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if f.Sectors() != f.cfg.UserSectors || f.SectorSize() != 512 {
		t.Fatal("accessors wrong")
	}
	if len(f.Snapshots()) != 1 {
		t.Fatal("Snapshots() wrong")
	}
	if f.MappedSectors() != 1 {
		t.Fatal("MappedSectors wrong")
	}
}

func TestLineageAndDepth(t *testing.T) {
	f := newTestFTL(t)
	now := sim.Time(0)
	s1, now, _ := f.CreateSnapshot(now)
	s2, now, _ := f.CreateSnapshot(now)
	s3, _, _ := f.CreateSnapshot(now)
	if s1.Parent != nil || s2.Parent != s1 || s3.Parent != s2 {
		t.Fatalf("snapshot parents = %v %v %v, want none, 1, 2", s1.Parent, s2.Parent, s3.Parent)
	}
	// Each snapshot's epoch inherits from the one before it, back to the root.
	var lin []bitmap.Epoch
	for e, ok := s3.Epoch, true; ok; e, ok = f.vstore.Parent(e) {
		lin = append(lin, e)
	}
	if len(lin) != 3 || lin[0] != s3.Epoch || lin[1] != s2.Epoch || lin[2] != s1.Epoch {
		t.Fatalf("epoch lineage of snapshot 3 = %v", lin)
	}
}
