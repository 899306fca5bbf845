package iosnap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Pinned runs of the batched data path under snapshot churn. Each case
// drives a seeded workload and condenses it into one line — per-op
// completion times, errors and snapshot IDs, read payloads, Stats (except
// the map's host-RAM layout), device Stats and every programmed page —
// compared with a committed constant. The constants were produced
// identically by the batched path and by a per-sector reference path
// (per-key map operations, per-bit validity flips and CoW charges, per-page
// device calls) on the same virtual-time skeleton, so they hold the batched
// path to what the reference computed. Each batch operation keeps its
// per-element check in its own package (ftlmap, nand, bitmap), and
// CheckInvariants checks the merged-validity counters against a scratch
// merge. A change that moves a constant changed device-visible behaviour;
// update one only with the reason in the commit that moves it.

func equivConfig() Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 32
	nc.Segments = 32
	nc.Channels = 4
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

type equivOp struct {
	kind byte // 'w' write, 'r' read, 't' trim, 's' snapshot, 'd' delete-snap
	lba  int64
	n    int
	ver  byte
}

func genEquivOps(seed int64, userSectors int64, count, maxRun int) []equivOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(userSectors-1))
	ops := make([]equivOp, 0, count)
	ver := byte(1)
	seqCursor := int64(0)
	for len(ops) < count {
		n := 1 + rng.Intn(maxRun)
		var lba int64
		switch rng.Intn(3) {
		case 0:
			lba = seqCursor
			if lba+int64(n) > userSectors {
				lba = 0
			}
			seqCursor = lba + int64(n)
		case 1:
			lba = rng.Int63n(userSectors - int64(n) + 1)
		default:
			lba = int64(zipf.Uint64())
			if lba+int64(n) > userSectors {
				lba = userSectors - int64(n)
			}
		}
		switch r := rng.Intn(20); {
		case r < 10:
			ver++
			ops = append(ops, equivOp{'w', lba, n, ver})
		case r < 15:
			ops = append(ops, equivOp{'r', lba, n, 0})
		case r < 17:
			ops = append(ops, equivOp{'t', lba, n, 0})
		case r < 19:
			ops = append(ops, equivOp{'s', 0, 0, 0})
		default:
			ops = append(ops, equivOp{'d', 0, 0, 0})
		}
	}
	return ops
}

func runPattern(ss int, lba int64, n int, ver byte) []byte {
	b := make([]byte, n*ss)
	for i := range b {
		sec := lba + int64(i/ss)
		b[i] = byte(sec) ^ byte(sec>>8) ^ ver ^ byte(i)
	}
	return b
}

func deviceDigest(t *testing.T, d *nand.Device) string {
	t.Helper()
	cfg := d.Config()
	var b strings.Builder
	for seg := 0; seg < cfg.Segments; seg++ {
		for i := 0; i < cfg.PagesPerSegment; i++ {
			a := d.Addr(seg, i)
			if !d.IsProgrammed(a) {
				continue
			}
			fp, err := d.PageFingerprint(a)
			if err != nil {
				t.Fatalf("fingerprint %v: %v", a, err)
			}
			oob, err := d.PageOOB(a)
			if err != nil {
				t.Fatalf("oob %v: %v", a, err)
			}
			fmt.Fprintf(&b, "%d/%d %x %x\n", seg, i, fp, oob)
		}
	}
	return b.String()
}

// firstDigestDiff locates the first line where two device digests differ.
func firstDigestDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// runDigest condenses a run into FNV-64a sums: each operation's completion
// time and whether it failed (plus each created snapshot's ID), and every
// payload a read returned.
type runDigest struct{ ops, reads hash.Hash64 }

func newRunDigest() *runDigest { return &runDigest{fnv.New64a(), fnv.New64a()} }

func (d *runDigest) op(done sim.Time, err error) {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], uint64(done))
	if err != nil {
		b[8] = 1
	}
	d.ops.Write(b[:])
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// summary is a run's one-line pin: a few readable counters, then the op and
// read sums, Stats (without the host-RAM layout of the map), the device's
// Stats and every programmed page.
func (d *runDigest) summary(t *testing.T, f *FTL) string {
	st := f.Stats()
	st.MapMemory, st.MapMemoryResident = 0, 0
	return fmt.Sprintf("userWrites=%d gcRuns=%d gcCopied=%d batchNandCalls=%d cows=%d ops=%016x reads=%016x stats=%016x dev=%016x image=%016x",
		st.UserWrites, st.GCRuns, st.GCCopied, st.BatchNandCalls, st.CoWPageCopies, d.ops.Sum64(), d.reads.Sum64(),
		fnvString(fmt.Sprintf("%+v", st)), fnvString(fmt.Sprintf("%+v", f.Device().Stats())),
		fnvString(deviceDigest(t, f.Device())))
}

// equivRun drives ops through f — deleting the oldest live snapshot on
// each 'd' — and returns the run's summary.
func equivRun(t *testing.T, f *FTL, ops []equivOp) string {
	t.Helper()
	ss := f.SectorSize()
	d := newRunDigest()
	now := sim.Time(0)
	buf := make([]byte, 256*ss)
	var liveSnaps []SnapshotID
	for _, op := range ops {
		var done sim.Time
		var err error
		switch op.kind {
		case 'w':
			done, err = f.Write(now, op.lba, runPattern(ss, op.lba, op.n, op.ver))
		case 'r':
			done, err = f.Read(now, op.lba, buf[:op.n*ss])
			d.reads.Write(buf[:op.n*ss])
		case 't':
			done, err = f.Trim(now, op.lba, int64(op.n))
		case 's':
			var snap *Snapshot
			snap, done, err = f.CreateSnapshot(now)
			if snap != nil {
				binary.Write(d.ops, binary.LittleEndian, uint64(snap.ID))
				liveSnaps = append(liveSnaps, snap.ID)
			}
		case 'd':
			if len(liveSnaps) == 0 {
				continue
			}
			done, err = f.DeleteSnapshot(now, liveSnaps[0])
			liveSnaps = liveSnaps[1:]
		}
		d.op(done, err)
		if done > now {
			now = done
		}
		f.Scheduler().RunUntil(now)
	}
	if st := f.Stats(); st.BatchNandCalls == 0 || st.BatchPages <= st.BatchNandCalls {
		t.Fatalf("batch counters implausible: %+v", st)
	}
	return d.summary(t, f)
}

func TestDataPathEquivalenceWithSnapshots(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{3, "userWrites=6285 gcRuns=258 gcCopied=2914 batchNandCalls=340 cows=139 ops=63807d8ca6c17d83 reads=e44bcfbd3b42a725 stats=ee8e244d97c12ba1 dev=5955080d81497820 image=51f947805944b2d6"},
		{11, "userWrites=5042 gcRuns=186 gcCopied=1856 batchNandCalls=267 cows=108 ops=8738682bc01a3a3e reads=14bca427efea6d25 stats=502dd6d35e09a2c3 dev=7b7de61b6b00c06f image=ac9483573056da30"},
		{99, "userWrites=10445 gcRuns=404 gcCopied=3429 batchNandCalls=488 cows=109 ops=2b6b386eaa6f2556 reads=4d931d119eb93925 stats=000242b22e52c4cf dev=a366fee76383e79c image=1f2e4c37c7727e5e"},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			f, err := New(equivConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := equivRun(t, f, genEquivOps(tc.seed, f.cfg.UserSectors, 250, 256)); got != tc.want {
				t.Errorf("pinned run moved:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestActivatedViewEquivalence drives reads and writes through an activated
// snapshot view: the view must show the frozen image and take writes.
func TestActivatedViewEquivalence(t *testing.T) {
	const want = "userWrites=128 gcRuns=0 gcCopied=0 batchNandCalls=29 cows=3 ops=4081a28261f2b253 reads=8f2f337d8862b325 stats=4c8d32eb972d13d6 dev=e0575289813e787c image=793f9872d6490939"
	f, err := New(equivConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	d := newRunDigest()
	now := sim.Time(0)
	step := func(what string, done sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		d.op(done, err)
		now = done
	}
	for lba := int64(0); lba < 64; lba += 4 {
		done, err := f.Write(now, lba, runPattern(ss, lba, 4, 1))
		step("write", done, err)
	}
	snap, done, err := f.CreateSnapshot(now)
	step("snapshot", done, err)
	// Diverge the active view so the snapshot view must read old data.
	for lba := int64(0); lba < 64; lba += 8 {
		done, err := f.Write(now, lba, runPattern(ss, lba, 8, 2))
		step("post-snap write", done, err)
	}
	v, done, err := f.ActivateSync(now, snap.ID, noLimit, true)
	step("activate", done, err)
	buf := make([]byte, 32*ss)
	done, err = v.Read(now, 0, buf)
	step("view read", done, err)
	d.reads.Write(buf)
	for lba := int64(0); lba < 32; lba += 4 {
		if string(buf[lba*int64(ss):(lba+4)*int64(ss)]) != string(runPattern(ss, lba, 4, 1)) {
			t.Fatalf("view read at lba %d does not show the frozen image", lba)
		}
	}
	done, err = v.Write(now, 16, runPattern(ss, 16, 16, 7))
	step("view write", done, err)
	done, err = v.Read(now, 16, buf[:16*ss])
	step("view re-read", done, err)
	d.reads.Write(buf[:16*ss])
	if string(buf[:16*ss]) != string(runPattern(ss, 16, 16, 7)) {
		t.Fatal("view re-read does not show the view's write")
	}
	if got := d.summary(t, f); got != want {
		t.Errorf("pinned run moved:\n got: %s\nwant: %s", got, want)
	}
}

// TestTrimClosedBeatsFrozen pins the check ordering regression: a frozen
// FTL that is then closed must refuse Trim with ErrClosed, exactly like
// Read and Write, not with ErrFrozen.
func TestTrimClosedBeatsFrozen(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, err := f.Write(0, 0, make([]byte, ss))
	if err != nil {
		t.Fatal(err)
	}
	if now, err = f.Freeze(now); err != nil {
		t.Fatal(err)
	}
	if now, err = f.Close(now); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Trim(now, 0, 1); err != ErrClosed {
		t.Fatalf("Trim on frozen+closed FTL: got %v, want ErrClosed", err)
	}
	// And frozen alone still wins on an open device.
	f2 := newTestFTL(t)
	now2, err := f2.Write(0, 0, make([]byte, ss))
	if err != nil {
		t.Fatal(err)
	}
	if now2, err = f2.Freeze(now2); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Trim(now2, 0, 1); err != ErrFrozen {
		t.Fatalf("Trim on frozen FTL: got %v, want ErrFrozen", err)
	}
}

// snapshotRunFTL returns an FTL whose LBAs 0-7 hold runPattern v1, frozen
// in snapshot 1, and a plan that fails times op attempts from the n-th on.
// The engine's retries and partial-batch accounting are logcore's
// TestTransientFaultsRetriedInvisibly and TestPartialBatchAccounting; the
// tests using this check them over CoW-shared blocks.
func snapshotRunFTL(t *testing.T, op nand.Op, n, times int64) (*FTL, *faultinject.Plan, sim.Time) {
	t.Helper()
	f, err := New(equivConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now, err := f.Write(0, 0, runPattern(f.SectorSize(), 0, 8, 1))
	if err == nil {
		_, now, err = f.CreateSnapshot(now)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f, faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: op, Seg: faultinject.AnySeg, AfterN: n, Times: times,
	}), now
}

// TestPartialBatchWriteAccounting: an 8-sector overwrite failing for good on
// its 5th page counts the 4 sectors that landed; the other 4 keep their old
// data, and CoW validity stays consistent.
func TestPartialBatchWriteAccounting(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		f, plan, now := snapshotRunFTL(t, nand.OpProgram, 5, 100)
		ss, before := f.SectorSize(), f.Stats()
		plan.Arm(f.Device())
		done, err := f.Write(now, 0, runPattern(ss, 0, 8, 2))
		plan.Disarm(f.Device())
		if err == nil || done <= now {
			t.Fatalf("mid-run failure: err %v, done %d (now %d)", err, done, now)
		}
		if st := f.Stats(); st.UserWrites-before.UserWrites != 4 || st.BytesWritten-before.BytesWritten != int64(4*ss) {
			t.Fatalf("wrote %d sectors, %d bytes: want the 4 completed", st.UserWrites-before.UserWrites, st.BytesWritten-before.BytesWritten)
		}
		buf := make([]byte, 8*ss)
		if _, err := f.Read(done, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:4*ss], runPattern(ss, 0, 4, 2)) || !bytes.Equal(buf[4*ss:], runPattern(ss, 4, 4, 1)) {
			t.Fatal("want LBAs 0-3 overwritten and 4-7 keeping their old data")
		}
		checkInvariants(t, f)
	})
}

// TestPartialBatchReadAccounting: an 8-sector read failing for good on its
// 4th page counts only the 3 sectors read before it.
func TestPartialBatchReadAccounting(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		f, plan, now := snapshotRunFTL(t, nand.OpRead, 4, 100)
		before := f.Stats()
		plan.Arm(f.Device())
		done, err := f.Read(now, 0, make([]byte, 8*f.SectorSize()))
		plan.Disarm(f.Device())
		if err == nil || done <= now {
			t.Fatalf("mid-run read failure: err %v, done %d (now %d)", err, done, now)
		}
		if got := f.Stats().UserReads - before.UserReads; got != 3 {
			t.Fatalf("UserReads delta = %d, want 3 (completed sectors)", got)
		}
		checkInvariants(t, f)
	})
}
