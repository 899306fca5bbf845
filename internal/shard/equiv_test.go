package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// With one shard the front-end must be a pure pass-through: the same seeded
// op mix driven through a Service{Shards:1} and through a bare iosnap.FTL
// must agree bit-for-bit — per-op errors, payloads and completion times,
// Stats, device Stats, and the full device image. This is the lockstep
// discipline the tree-vs-paged map equivalence tests enforce, lifted to the
// sharded front-end.

func equivBase() iosnap.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 32
	nc.Segments = 32
	nc.Channels = 4
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	cfg := iosnap.DefaultConfig(nc)
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

func TestSingleShardLockstepEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 23, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			bare, err := iosnap.New(equivBase(), nil)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(Config{Base: equivBase(), Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			sh := &svc.shards[0]
			ss := bare.SectorSize()
			ops := genEquivOps(seed, bare.Sectors(), 250, 256)

			// The bare FTL is driven by the service's own rule: run the
			// scheduler up to the clock, issue the op at the clock, move the
			// clock to the op's completion. A snapshot create first waits for
			// the device to quiesce, as the barrier does.
			now := sim.Time(0)
			bbuf := make([]byte, 256*ss)
			sbuf := make([]byte, 256*ss)
			var liveSnaps []iosnap.SnapshotID
			for i, op := range ops {
				if op.kind == 's' {
					now = max(now, bare.Device().BusyUntil())
				}
				bare.Scheduler().RunUntil(now)
				done := now
				var be, se error
				switch op.kind {
				case 'w':
					data := runPattern(ss, op.lba, op.n, op.ver)
					done, be = bare.Write(now, op.lba, data)
					se = svc.Write(op.lba, data)
				case 'r':
					done, be = bare.Read(now, op.lba, bbuf[:op.n*ss])
					se = svc.Read(op.lba, sbuf[:op.n*ss])
					if be == nil && string(bbuf[:op.n*ss]) != string(sbuf[:op.n*ss]) {
						t.Fatalf("op %d (%c lba=%d n=%d): payload mismatch", i, op.kind, op.lba, op.n)
					}
				case 't':
					done, be = bare.Trim(now, op.lba, int64(op.n))
					se = svc.Trim(op.lba, int64(op.n))
				case 's':
					var bs *iosnap.Snapshot
					var sid iosnap.SnapshotID
					bs, done, be = bare.CreateSnapshot(now)
					sid, se = svc.CreateSnapshot()
					if be == nil && se == nil {
						if bs.ID != sid {
							t.Fatalf("op %d: snapshot IDs diverge: %d vs %d", i, bs.ID, sid)
						}
						liveSnaps = append(liveSnaps, sid)
					}
				case 'd':
					if len(liveSnaps) == 0 {
						continue
					}
					id := liveSnaps[0]
					liveSnaps = liveSnaps[1:]
					done, be = bare.DeleteSnapshot(now, id)
					se = svc.DeleteSnapshot(id)
				}
				if (be == nil) != (se == nil) {
					t.Fatalf("op %d (%c lba=%d n=%d): bare err %v, service err %v", i, op.kind, op.lba, op.n, be, se)
				}
				now = max(now, done)
				if sh.vnow != now {
					t.Fatalf("op %d (%c lba=%d n=%d): bare done %d, service clock %d (Δ %d)",
						i, op.kind, op.lba, op.n, now, sh.vnow, now.Sub(sh.vnow))
				}
			}

			if bs, ss2 := bare.Stats(), sh.f.Stats(); bs != ss2 {
				t.Fatalf("Stats diverge:\nbare:    %+v\nservice: %+v", bs, ss2)
			}
			if bdev, sdev := bare.Device().Stats(), sh.f.Device().Stats(); bdev != sdev {
				t.Fatalf("device Stats diverge:\nbare:    %+v\nservice: %+v", bdev, sdev)
			}
			if bdig, sdig := deviceDigest(t, bare.Device()), deviceDigest(t, sh.f.Device()); bdig != sdig {
				t.Fatal("device images diverge")
			}
			if err := svc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Close drains the scheduler, then checkpoints at the final clock.
			now = max(now, bare.Scheduler().Drain(now))
			bd, be := bare.Close(now)
			se := svc.Close()
			if (be == nil) != (se == nil) || max(now, bd) != sh.vnow {
				t.Fatalf("Close diverges: %v/%v at %d/%d", be, se, max(now, bd), sh.vnow)
			}
			if bdig, sdig := deviceDigest(t, bare.Device()), deviceDigest(t, sh.f.Device()); bdig != sdig {
				t.Fatal("device images diverge after Close")
			}
		})
	}
}
