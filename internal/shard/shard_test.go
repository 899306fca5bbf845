package shard

import (
	"math"
	"strings"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// noLimit is an unthrottled activation budget.
var noLimit = ratelimit.WorkSleep{}

// multiBase is a 4-shard-friendly base: 768 user sectors leave each shard
// two spare segments for cleaning headroom.
func multiConfig(shards int, stripe int64) Config {
	cfg := Config{Base: equivBase(), Shards: shards, StripeSectors: stripe}
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
		{"stripe misaligned", func(c *Config) { c.StripeSectors = 7 }, "stripe"},
		{"negative stripe", func(c *Config) { c.StripeSectors = -1 }, "negative"},
		{"negative bus", func(c *Config) { c.InterconnectReadMBps = -1 }, "bandwidth"},
		{"negative gc", func(c *Config) { c.GCConcurrency = -1 }, "GCConcurrency"},
	} {
		cfg := multiConfig(4, 32)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := multiConfig(4, 32).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestExtentsPartitioning checks both partitioning schemes are bijections
// from the global LBA space onto per-shard spaces, split pieces are in
// ascending global order, and buffer offsets tile the request exactly.
func TestExtentsPartitioning(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stripe int64
	}{{"contiguous", 0}, {"striped", 32}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := multiConfig(4, tc.stripe)
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
			// A long run must tile: offsets consecutive, total length n.
			exts := cfg.extents(10, 300, nil)
			var off int64
			for _, e := range exts {
				if e.off != off {
					t.Fatalf("offset gap: %+v at expected %d", e, off)
				}
				off += e.n
			}
			if off != 300 {
				t.Fatalf("pieces cover %d of 300 sectors", off)
			}
		})
	}
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

func TestShardedWriteReadTrimRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stripe int64
	}{{"contiguous", 0}, {"striped", 32}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRouter(multiConfig(4, tc.stripe))
			if err != nil {
				t.Fatal(err)
			}
			ss := r.SectorSize()
			now := sim.Time(0)
			// Runs of 100 sectors deliberately straddle both stripe and
			// contiguous shard boundaries.
			for lba := int64(0); lba+100 <= r.Sectors(); lba += 100 {
				if now, err = r.Write(now, lba, runPattern(ss, lba, 100, 1)); err != nil {
					t.Fatalf("write lba %d: %v", lba, err)
				}
				r.RunUntil(now)
			}
			buf := make([]byte, 100*ss)
			for lba := int64(0); lba+100 <= r.Sectors(); lba += 100 {
				if now, err = r.Read(now, lba, buf); err != nil {
					t.Fatalf("read lba %d: %v", lba, err)
				}
				if string(buf) != string(runPattern(ss, lba, 100, 1)) {
					t.Fatalf("payload mismatch at lba %d", lba)
				}
			}
			if st := r.Stats(); st.SplitOps == 0 || st.Pieces <= st.Ops {
				t.Fatalf("workload never crossed a shard boundary: %+v", st)
			}
			// Trim a boundary-straddling run; it must read back as zeros.
			if now, err = r.Trim(now, 150, 100); err != nil {
				t.Fatal(err)
			}
			if now, err = r.Read(now, 150, buf); err != nil {
				t.Fatal(err)
			}
			for i, c := range buf {
				if c != 0 {
					t.Fatalf("trimmed sector not zero at byte %d", i)
				}
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Close(now); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Close(now); err != ErrClosed {
				t.Fatalf("second Close: got %v, want ErrClosed", err)
			}
		})
	}
}

// TestSnapshotBarrier: a multi-shard snapshot is one consistent image —
// same ID on every shard, taken at a single instant no earlier than any
// shard's in-flight NAND work, readable across shard boundaries after
// the active view moves on.
func TestSnapshotBarrier(t *testing.T) {
	r, err := NewRouter(multiConfig(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	ss := r.SectorSize()
	now := sim.Time(0)
	if now, err = r.Write(now, 0, runPattern(ss, 0, 256, 1)); err != nil {
		t.Fatal(err)
	}
	// Snapshot while shard NAND is still busy: the barrier must wait.
	id, done, err := r.CreateSnapshot(now / 2)
	if err != nil {
		t.Fatal(err)
	}
	if done < now {
		t.Fatalf("snapshot completed at %d, before in-flight writes at %d", done, now)
	}
	st := r.Stats()
	if st.Barriers != 1 || st.BarrierWait <= 0 {
		t.Fatalf("barrier not exercised: %+v", st)
	}
	now = done
	// Every shard's tree must list the same ID, created at the same time.
	var createdAt sim.Time
	for i := 0; i < r.Shards(); i++ {
		snaps := r.Shard(i).Snapshots()
		if len(snaps) != 1 || snaps[0].ID != id {
			t.Fatalf("shard %d tree diverges: %+v", i, snaps)
		}
		if i == 0 {
			createdAt = snaps[0].CreatedAt
		} else if snaps[0].CreatedAt != createdAt {
			t.Fatalf("shard %d froze at %d, shard 0 at %d", i, snaps[0].CreatedAt, createdAt)
		}
	}
	// Diverge the active view, then read the old data through the
	// composed activation.
	if now, err = r.Write(now, 0, runPattern(ss, 0, 256, 2)); err != nil {
		t.Fatal(err)
	}
	view, done, err := r.ActivateSync(now, id, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	now = done
	buf := make([]byte, 256*ss)
	if now, err = view.Read(now, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(runPattern(ss, 0, 256, 1)) {
		t.Fatal("snapshot view does not show the frozen image")
	}
	if now, err = view.Deactivate(now); err != nil {
		t.Fatal(err)
	}
	if len(r.SnapshotIDs()) != 1 {
		t.Fatalf("SnapshotIDs = %v", r.SnapshotIDs())
	}
	if now, err = r.DeleteSnapshot(now, id); err != nil {
		t.Fatal(err)
	}
	if len(r.SnapshotIDs()) != 0 {
		t.Fatal("deleted snapshot still listed")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIDsStayAligned: creates and deletes interleaved with writes
// keep every shard's ID sequence identical.
func TestSnapshotIDsStayAligned(t *testing.T) {
	r, err := NewRouter(multiConfig(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	ss := r.SectorSize()
	now := sim.Time(0)
	var ids []iosnap.SnapshotID
	for k := 0; k < 5; k++ {
		if now, err = r.Write(now, int64(k*64), runPattern(ss, int64(k*64), 64, byte(k+1))); err != nil {
			t.Fatal(err)
		}
		id, done, err := r.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		ids = append(ids, id)
	}
	if now, err = r.DeleteSnapshot(now, ids[2]); err != nil {
		t.Fatal(err)
	}
	live := r.SnapshotIDs()
	if len(live) != 4 {
		t.Fatalf("live snapshots: %v", live)
	}
	for i := 1; i < r.Shards(); i++ {
		a, b := r.Shard(0).Snapshots(), r.Shard(i).Snapshots()
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

func TestGovernorTokenGate(t *testing.T) {
	g := NewGovernor(2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("governor denied within capacity")
	}
	if g.TryAcquire() {
		t.Fatal("governor admitted past capacity")
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("released token not reusable")
	}
	granted, denied := g.Counts()
	if granted != 3 || denied != 1 {
		t.Fatalf("counts granted=%d denied=%d", granted, denied)
	}
	if g.InUse() != 2 {
		t.Fatalf("InUse = %d", g.InUse())
	}
	// Unbounded governor only counts.
	u := NewGovernor(0)
	for i := 0; i < 10; i++ {
		if !u.TryAcquire() {
			t.Fatal("unbounded governor denied")
		}
	}
}

// TestGovernedCleaning: heavy overwrite churn across 4 shards with a
// global GC budget of 1 still cleans (granted tokens, completed runs) and
// never leaks a token.
func TestGovernedCleaning(t *testing.T) {
	cfg := multiConfig(4, 32)
	cfg.GCConcurrency = 1
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := r.SectorSize()
	now := sim.Time(0)
	for round := 0; round < 20; round++ {
		for lba := int64(0); lba+128 <= r.Sectors(); lba += 128 {
			if now, err = r.Write(now, lba, runPattern(ss, lba, 128, byte(round+1))); err != nil {
				t.Fatalf("round %d lba %d: %v", round, lba, err)
			}
			r.RunUntil(now)
		}
	}
	now = r.Drain(now)
	var gcRuns int64
	for _, st := range r.ShardStats() {
		gcRuns += st.GCRuns
	}
	if gcRuns == 0 {
		t.Fatal("churn workload never cleaned")
	}
	granted, _ := r.Governor().Counts()
	if granted == 0 {
		t.Fatal("governed cleaning never acquired a token")
	}
	if r.Governor().InUse() != 0 {
		t.Fatalf("token leaked: InUse = %d", r.Governor().InUse())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInterconnectSerializes: with a shared write bus configured, two
// back-to-back writes at the same instant finish later than they would
// with infinite interconnect bandwidth.
func TestInterconnectSerializes(t *testing.T) {
	free, err := NewRouter(multiConfig(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiConfig(4, 32)
	cfg.InterconnectWriteMBps = 100
	cfg.InterconnectReadMBps = 100
	bused, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := free.SectorSize()
	data := runPattern(ss, 0, 256, 1)
	d1, err := free.Write(0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := bused.Write(0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("bus-charged write done %d, free write done %d", d2, d1)
	}
	if bused.Stats().BusWait != 0 {
		t.Fatalf("first transfer should not wait, got %v", bused.Stats().BusWait)
	}
	// Issue a second write at time zero: it must queue behind the first
	// transfer on the shared link.
	if _, err := bused.Write(0, 256, data); err != nil {
		t.Fatal(err)
	}
	if bused.Stats().BusWait <= 0 {
		t.Fatal("second transfer did not queue on the shared interconnect")
	}
}

// TestHugeRunRejected: a run length near 2^63 must fail the range check,
// not wrap it. lba+n overflowed to a negative sum, passed, and extents
// then split 2^63 sectors into pieces until the process ran out of memory
// — over the wire, one trim frame.
func TestHugeRunRejected(t *testing.T) {
	for _, stripe := range []int64{0, 32} {
		cfg := multiConfig(4, stripe)
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{math.MaxInt64, math.MaxInt64 - 1, svc.Sectors()} {
			if err := svc.Trim(1, n); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("stripe %d: Service.Trim(1, %d) = %v, want out of range", stripe, n, err)
			}
			if _, err := r.Trim(0, 1, n); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("stripe %d: Router.Trim(1, %d) = %v, want out of range", stripe, n, err)
			}
		}
		if err := svc.Trim(1, svc.Sectors()-1); err != nil {
			t.Fatalf("stripe %d: trim to the last sector: %v", stripe, err)
		}
		svc.Close()
	}
}

// TestServiceSingleExtentAllocatesNothing: a one-sector read or write
// through the service costs no allocation above the FTL's own — no
// closure, no reply channel, the extent list on the stack.
func TestServiceSingleExtentAllocatesNothing(t *testing.T) {
	cfg := multiConfig(4, 32)
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
