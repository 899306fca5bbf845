package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
)

// multiConfig is a 4-shard-friendly config: 768 user sectors leave each
// shard two spare segments for cleaning headroom.
func multiConfig(shards int) Config {
	cfg := Config{Base: equivBase(), Shards: shards}
	cfg.Base.UserSectors = 768
	return cfg
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero shards", func(c *Config) { c.Shards = 0 }, "at least 1"},
		{"segments not divisible", func(c *Config) { c.Shards = 5 }, "not divisible"},
		{"sectors not divisible", func(c *Config) { c.Base.UserSectors = 770 }, "not divisible"},
	} {
		cfg := multiConfig(4)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := multiConfig(4).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestExtentsPartitioning checks the partitioning is a bijection from the
// global LBA space onto the per-shard spaces, and that every run splits into
// pieces on consecutive, ascending shards whose buffer offsets tile the
// request exactly — the property that lets an op lock one ascending range
// of shards.
func TestExtentsPartitioning(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		cfg := multiConfig(4)
		per := cfg.Base.UserSectors / int64(cfg.Shards)
		seen := make(map[[2]int64]int64)
		for lba := int64(0); lba < cfg.Base.UserSectors; lba++ {
			exts := cfg.extents(lba, 1, nil)
			if len(exts) != 1 || exts[0].n != 1 || exts[0].off != 0 {
				t.Fatalf("lba %d: single-sector split wrong: %+v", lba, exts)
			}
			e := exts[0]
			if e.shard < 0 || e.shard >= cfg.Shards || e.lba < 0 || e.lba >= per {
				t.Fatalf("lba %d: out-of-range piece %+v", lba, e)
			}
			key := [2]int64{int64(e.shard), e.lba}
			if prev, dup := seen[key]; dup {
				t.Fatalf("lba %d and %d both map to shard %d local %d", prev, lba, e.shard, e.lba)
			}
			seen[key] = lba
		}
		if int64(len(seen)) != cfg.Base.UserSectors {
			t.Fatalf("mapping not onto: %d of %d", len(seen), cfg.Base.UserSectors)
		}
		var exts []extent
		for lba := int64(0); lba < cfg.Base.UserSectors; lba++ {
			for n := int64(1); lba+n <= cfg.Base.UserSectors; n++ {
				exts = cfg.extents(lba, n, exts)
				var off int64
				for i, e := range exts {
					if i > 0 && e.shard != exts[i-1].shard+1 {
						t.Fatalf("run %d+%d: shards not consecutive and ascending: %+v", lba, n, exts)
					}
					if e.off != off || e.lba < 0 || e.lba+e.n > per {
						t.Fatalf("run %d+%d: piece %+v does not tile at offset %d", lba, n, e, off)
					}
					off += e.n
				}
				if off != n {
					t.Fatalf("run %d+%d: pieces cover %d sectors", lba, n, off)
				}
			}
		}
	})
}

func TestDistributeConservesBudget(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16, 17} {
		total := 0
		for i := 0; i < 4; i++ {
			total += distribute(n, 4, i)
		}
		if total != n {
			t.Fatalf("distribute(%d, 4): total %d", n, total)
		}
	}
}

// The tests below drive a Service from one goroutine, which makes every
// virtual time in them deterministic.

func TestShardedWriteReadTrimRoundTrip(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		svc, err := NewService(multiConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		ss := svc.SectorSize()
		// Runs of 100 sectors deliberately straddle shard boundaries.
		if len(svc.cfg.extents(100, 100, nil)) < 2 {
			t.Fatal("workload never crosses a shard boundary")
		}
		for lba := int64(0); lba+100 <= svc.Sectors(); lba += 100 {
			if err := svc.Write(lba, runPattern(ss, lba, 100, 1)); err != nil {
				t.Fatalf("write lba %d: %v", lba, err)
			}
		}
		buf := make([]byte, 100*ss)
		for lba := int64(0); lba+100 <= svc.Sectors(); lba += 100 {
			if err := svc.Read(lba, buf); err != nil {
				t.Fatalf("read lba %d: %v", lba, err)
			}
			if string(buf) != string(runPattern(ss, lba, 100, 1)) {
				t.Fatalf("payload mismatch at lba %d", lba)
			}
		}
		stats, _ := svc.ShardStats()
		for i, st := range stats {
			if st.UserWrites == 0 {
				t.Fatalf("shard %d received no writes", i)
			}
		}
		// Trim a boundary-straddling run; it must read back as zeros.
		if err := svc.Trim(150, 100); err != nil {
			t.Fatal(err)
		}
		if err := svc.Read(150, buf); err != nil {
			t.Fatal(err)
		}
		for i, c := range buf {
			if c != 0 {
				t.Fatalf("trimmed sector not zero at byte %d", i)
			}
		}
		if err := svc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		t.Log(err)
		if err := svc.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("second Close: got %v, want ErrClosed", err)
		}
	})
}

// TestSnapshotBarrier: a multi-shard snapshot is one consistent image —
// same ID on every shard, taken at a single instant no earlier than any
// shard's clock or in-flight NAND work, readable across shard boundaries
// after the active view moves on.
func TestSnapshotBarrier(t *testing.T) {
	svc, err := NewService(multiConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ss := svc.SectorSize()
	// The image straddles the boundary between shards 0 and 1.
	const lba, n = 128, 128
	if exts := svc.cfg.extents(lba, n, nil); len(exts) != 2 {
		t.Fatalf("image spans %d shards, want 2", len(exts))
	}
	if err := svc.Write(lba, runPattern(ss, lba, n, 1)); err != nil {
		t.Fatal(err)
	}
	// An extra write leaves one shard's clock ahead of the others': the
	// barrier must wait for it.
	if err := svc.Write(lba, runPattern(ss, lba, 8, 1)); err != nil {
		t.Fatal(err)
	}
	_, before := svc.ShardStats()
	if slices.Min(before) == slices.Max(before) {
		t.Fatalf("shard clocks not skewed before the barrier: %v", before)
	}
	id, err := svc.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Every shard's tree must list the same ID, created at the same time.
	createdAt := svc.shards[0].f.Snapshots()[0].CreatedAt
	if createdAt < slices.Max(before) {
		t.Fatalf("snapshot froze at %d, before the furthest shard clock %d", createdAt, slices.Max(before))
	}
	for i := range svc.shards {
		snaps := svc.shards[i].f.Snapshots()
		if len(snaps) != 1 || snaps[0].ID != id {
			t.Fatalf("shard %d tree diverges: %+v", i, snaps)
		}
		if snaps[0].CreatedAt != createdAt {
			t.Fatalf("shard %d froze at %d, shard 0 at %d", i, snaps[0].CreatedAt, createdAt)
		}
		if svc.shards[i].vnow < createdAt {
			t.Fatalf("shard %d clock %d left behind the barrier at %d", i, svc.shards[i].vnow, createdAt)
		}
	}
	// Diverge the active view, then read the old data through the
	// composed activation.
	if err := svc.Write(lba, runPattern(ss, lba, n, 2)); err != nil {
		t.Fatal(err)
	}
	view, err := svc.ActivateSync(id, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n*ss)
	if err := view.Read(lba, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(runPattern(ss, lba, n, 1)) {
		t.Fatal("snapshot view does not show the frozen image")
	}
	if err := view.Deactivate(); err != nil {
		t.Fatal(err)
	}
	if n := svc.LiveSnapshots(); n != 1 {
		t.Fatalf("LiveSnapshots = %d, want 1", n)
	}
	if err := svc.DeleteSnapshot(id); err != nil {
		t.Fatal(err)
	}
	if n := svc.LiveSnapshots(); n != 0 {
		t.Fatalf("deleted snapshot still counted: LiveSnapshots = %d", n)
	}
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIDsStayAligned: creates and deletes interleaved with writes
// keep every shard's ID sequence identical.
func TestSnapshotIDsStayAligned(t *testing.T) {
	svc, err := NewService(multiConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ss := svc.SectorSize()
	var ids []iosnap.SnapshotID
	for k := 0; k < 5; k++ {
		if err := svc.Write(int64(k*64), runPattern(ss, int64(k*64), 64, byte(k+1))); err != nil {
			t.Fatal(err)
		}
		id, err := svc.CreateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := svc.DeleteSnapshot(ids[2]); err != nil {
		t.Fatal(err)
	}
	if n := svc.LiveSnapshots(); n != 4 {
		t.Fatalf("live snapshots: %d, want 4", n)
	}
	a := svc.shards[0].f.Snapshots()
	for i := 1; i < svc.Shards(); i++ {
		b := svc.shards[i].f.Snapshots()
		if len(a) != len(b) {
			t.Fatalf("shard %d tree size %d vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j].ID != b[j].ID || a[j].Deleted != b[j].Deleted {
				t.Fatalf("shard %d entry %d diverges", i, j)
			}
		}
	}
}

// TestHugeRunRejected: a run length near 2^63 must fail the range check,
// not wrap it. lba+n overflowed to a negative sum, passed, and extents
// then split 2^63 sectors into pieces until the process ran out of memory
// — over the wire, one trim frame.
func TestHugeRunRejected(t *testing.T) {
	svc, err := NewService(multiConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, n := range []int64{math.MaxInt64, math.MaxInt64 - 1, svc.Sectors()} {
		if err := svc.Trim(1, n); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Service.Trim(1, %d) = %v, want out of range", n, err)
		}
	}
	if err := svc.Trim(1, svc.Sectors()-1); err != nil {
		t.Fatalf("trim to the last sector: %v", err)
	}
}

// TestServiceSingleExtentAllocatesNothing: a one-sector read or write
// through the service costs no allocation above the FTL's own — no
// closure, no reply channel, the extent list on the stack.
func TestServiceSingleExtentAllocatesNothing(t *testing.T) {
	cfg := multiConfig(4)
	// What the layers below allocate is not this test's business: the
	// measured writes stay inside one segment (no seal, no cleaner) and the
	// device model keeps no payloads (no buffer per first-programmed page).
	cfg.Base.Nand.PagesPerSegment = 1024
	cfg.Base.Nand.StoreData = false
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	buf := runPattern(svc.SectorSize(), 5, 1, 9)
	if err := svc.Write(5, buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { svc.Read(5, buf) }); n != 0 {
		t.Errorf("one-sector Service.Read allocates %v times", n)
	}
	if n := testing.AllocsPerRun(200, func() { svc.Write(5, buf) }); n != 0 {
		t.Errorf("one-sector Service.Write allocates %v times", n)
	}
}

// TestServiceCloseShardsIndependently: the shards close side by side, and
// one whose checkpoint programs all fail does not disturb the others. As
// for one FTL (the Shards=1 equivalence pins it), a final checkpoint that
// does not commit is no Close error: the failed shard's CheckpointErrors
// names it. Every other shard's device remounts tail-bounded from its final
// checkpoint, the failed one by a full scan, and a second Close is
// ErrClosed.
func TestServiceCloseShardsIndependently(t *testing.T) {
	const bad = 2
	cfg := multiConfig(4)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := svc.SectorSize()
	want := make([]byte, 16*ss)
	for i := range want {
		want[i] = byte(i / ss)
	}
	for lba := int64(0); lba < svc.Sectors(); lba += 128 {
		if err := svc.Write(lba, want); err != nil {
			t.Fatal(err)
		}
	}
	devs := make([]*nand.Device, len(svc.shards))
	for i := range devs {
		devs[i] = svc.shards[i].f.Device()
	}
	devs[bad].SetFaultHook(nand.FaultFunc(func(op nand.Op, _ nand.PageAddr) error {
		if op == nand.OpProgram {
			return nand.ErrDeviceFailed
		}
		return nil
	}))

	if err := svc.Close(); err != nil {
		t.Fatalf("Close = %v; a failed final checkpoint is not a close error", err)
	}
	for i, st := range svc.Summary().PerShard {
		if failed := st.CheckpointErrors != 0; failed != (i == bad) {
			t.Errorf("shard %d: %d checkpoint errors (%q)", i, st.CheckpointErrors, st.CheckpointLastErr)
		}
	}
	if err := svc.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}

	devs[bad].SetFaultHook(nil)
	again, err := NewServiceFrom(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range again.Summary().PerShard {
		if st.RecoveryTailBounded != (i != bad) {
			t.Errorf("shard %d: tail-bounded remount %v", i, st.RecoveryTailBounded)
		}
	}
	got := make([]byte, len(want))
	for lba := int64(0); lba < again.Sectors(); lba += 128 {
		if err := again.Read(lba, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("lba %d after remount: %v", lba, err)
		}
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceShardErrorsInShardOrder: mount and close run the shards side
// by side, and whichever finishes first, the errors come back in shard
// order.
func TestServiceShardErrorsInShardOrder(t *testing.T) {
	cfg := multiConfig(4)
	for run := 0; run < 20; run++ {
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs := make([]*nand.Device, len(svc.shards))
		for i := range devs {
			devs[i] = svc.shards[i].f.Device()
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{3, 1} {
			devs[i].SetFaultHook(nand.FaultFunc(func(nand.Op, nand.PageAddr) error { return nand.ErrDeviceFailed }))
		}
		if _, err := NewServiceFrom(cfg, devs); err == nil || !strings.HasPrefix(err.Error(), "shard 1:") {
			t.Fatalf("run %d: mounting with shards 1 and 3 failing = %v, want shard 1's error", run, err)
		}

		for _, d := range devs {
			d.SetFaultHook(nil)
		}
		if svc, err = NewServiceFrom(cfg, devs); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{3, 1} { // closed underneath the service
			if _, err := svc.shards[i].f.Close(svc.shards[i].vnow); err != nil {
				t.Fatal(err)
			}
		}
		err = svc.Close()
		if msg := fmt.Sprint(err); !strings.HasPrefix(msg, "shard 1:") || !strings.Contains(msg, "\nshard 3:") {
			t.Fatalf("run %d: closing with shards 1 and 3 already closed = %v, want both, shard 1 first", run, err)
		}
	}
}
