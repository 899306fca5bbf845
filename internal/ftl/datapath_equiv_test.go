package ftl

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Pinned runs of the batched data path. Each case drives a seeded workload
// and condenses it into one line — per-op completion times and errors, read
// payloads, Stats (except the map's host-RAM layout), device Stats and every
// programmed page — compared with a committed constant. The constants were
// produced identically by the batched path and by a per-sector reference
// path (per-key map operations, per-bit validity flips, per-page device
// calls) on the same virtual-time skeleton, so they hold the batched path to
// what the reference computed. Each batch operation keeps its per-element
// check in its own package (ftlmap, nand, bitmap). A change that moves a
// constant changed device-visible behaviour; update one only with the
// reason in the commit that moves it.

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
	return cfg
}

type equivOp struct {
	kind byte // 'w', 'r', 't'
	lba  int64
	n    int
	ver  byte
}

// genEquivOps builds a seeded op mix: sequential sweeps, uniform-random
// runs, and zipf-skewed runs, with lengths from 1 to maxRun sectors plus
// occasional trims.
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
		case 0: // sequential sweep
			lba = seqCursor
			if lba+int64(n) > userSectors {
				lba = 0
			}
			seqCursor = lba + int64(n)
		case 1: // uniform random
			lba = rng.Int63n(userSectors - int64(n) + 1)
		default: // zipf-skewed hot set
			lba = int64(zipf.Uint64())
			if lba+int64(n) > userSectors {
				lba = userSectors - int64(n)
			}
		}
		switch r := rng.Intn(10); {
		case r < 6:
			ver++
			ops = append(ops, equivOp{'w', lba, n, ver})
		case r < 9:
			ops = append(ops, equivOp{'r', lba, n, 0})
		default:
			ops = append(ops, equivOp{'t', lba, n, 0})
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

// deviceDigest summarizes every programmed page (payload fingerprint + OOB
// header bytes) so two devices can be diffed exactly.
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

// runDigest condenses a run into FNV-64a sums: each operation's completion
// time and whether it failed, and every payload a read returned.
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
	return fmt.Sprintf("userWrites=%d gcRuns=%d gcCopied=%d batchNandCalls=%d ops=%016x reads=%016x stats=%016x dev=%016x image=%016x",
		st.UserWrites, st.GCRuns, st.GCCopied, st.BatchNandCalls, d.ops.Sum64(), d.reads.Sum64(),
		fnvString(fmt.Sprintf("%+v", st)), fnvString(fmt.Sprintf("%+v", f.Device().Stats())),
		fnvString(deviceDigest(t, f.Device())))
}

// equivRun drives ops through f and returns the run's summary.
func equivRun(t *testing.T, f *FTL, ops []equivOp) string {
	t.Helper()
	ss := f.SectorSize()
	d := newRunDigest()
	now := sim.Time(0)
	buf := make([]byte, 256*ss)
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

func TestDataPathEquivalence(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "userWrites=25151 gcRuns=859 gcCopied=3261 batchNandCalls=1119 ops=0a0b84b8a5f5471f reads=4fdd093f83a72d25 stats=fdd1d7c49fa8d767 dev=204334b70d7861e1 image=2719851d17c3dedf"},
		{7, "userWrites=20339 gcRuns=781 gcCopied=5556 batchNandCalls=981 ops=1c3105f4e783cd62 reads=ad5a15c2540f6725 stats=bd35a415c729d7d6 dev=d44de093a1bfe68f image=6b3624a7eada64b3"},
		{42, "userWrites=19377 gcRuns=637 gcCopied=1923 batchNandCalls=886 ops=65b5ba59b64efaa6 reads=f5f04b9ffca23125 stats=2889c92ddc79b258 dev=fb8007d00e1f49f8 image=47974f08ffc43c04"},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			f, err := New(equivConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := equivRun(t, f, genEquivOps(tc.seed, f.cfg.UserSectors, 300, 256)); got != tc.want {
				t.Errorf("pinned run moved:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestReadEquivalenceWithHoles pins down the zero-fill path: unmapped
// sectors inside a run read as zeros.
func TestReadEquivalenceWithHoles(t *testing.T) {
	const want = "userWrites=20 gcRuns=0 gcCopied=0 batchNandCalls=21 ops=d8ba1ef86e8eb64e reads=f107d55e7bc5e125 stats=69982154c6fe7354 dev=c7568e7d054916d7 image=76a19d6152809593"
	f, err := New(equivConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	d := newRunDigest()
	now := sim.Time(0)
	// Map every third sector only.
	for lba := int64(0); lba < 60; lba += 3 {
		done, err := f.Write(now, lba, runPattern(ss, lba, 1, 9))
		if err != nil {
			t.Fatalf("write lba %d: %v", lba, err)
		}
		d.op(done, err)
		now = done
	}
	buf := make([]byte, 60*ss)
	done, err := f.Read(now, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	d.op(done, err)
	d.reads.Write(buf)
	for i := 0; i < 60; i++ {
		sector := buf[i*ss : (i+1)*ss]
		if i%3 != 0 {
			for _, c := range sector {
				if c != 0 {
					t.Fatalf("unmapped sector %d not zero-filled", i)
				}
			}
		}
	}
	if got := d.summary(t, f); got != want {
		t.Errorf("pinned run moved:\n got: %s\nwant: %s", got, want)
	}
}
