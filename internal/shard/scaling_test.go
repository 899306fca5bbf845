package shard

import (
	"math/rand"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// scalingBase is a device whose shared bus — not its channel array — is the
// throughput ceiling, which is exactly the regime the paper's hardware (and
// LFTL's motivation) lives in. The generous over-provisioning (advertised
// capacity is 3/8 of physical) keeps the cleaner out of the out-of-space
// regime even at 16 shards, where each shard owns only 16 segments and
// random overwrite churn would otherwise outrun per-shard cleaning.
func scalingBase() iosnap.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 32
	nc.Segments = 256
	nc.Channels = 16
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	nc.ReadBusMBps = 400
	nc.WriteBusMBps = 400
	cfg := iosnap.DefaultConfig(nc)
	cfg.UserSectors = 3072
	cfg.GCWindow = sim.Millisecond
	cfg.BitmapPageBits = 64
	cfg.CoWPageCost = 10 * sim.Microsecond
	return cfg
}

// TestShardScalingVirtualMakespan is what sharding exists to move: the same
// work finishes sooner in virtual time on more shards, because with one
// shard every request serializes behind a single clock (and a single device
// bus) and with N the clocks advance side by side. Sixteen seeded streams
// of 150 16-sector ops (65% writes, 30% reads, 5% trims) are dealt
// round-robin onto a service from this one goroutine, so the arrival order
// — and with it every virtual time — is a function of the seeds alone: the
// three makespans are pinned exactly, and 16 shards must stay at least
// twice as fast as one.
func TestShardScalingVirtualMakespan(t *testing.T) {
	const (
		streams = 16
		ops     = 150
		run     = 16
	)
	makespan := func(shards int) sim.Time {
		svc, err := NewService(Config{Base: scalingBase(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rngs := make([]*rand.Rand, streams)
		bufs := make([][]byte, streams)
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(1 + int64(c)))
			bufs[c] = make([]byte, run*svc.SectorSize())
			rngs[c].Read(bufs[c])
		}
		for op := 0; op < ops; op++ {
			for c, rng := range rngs {
				lba := rng.Int63n(svc.Sectors() - run + 1)
				var err error
				switch r := rng.Intn(20); {
				case r < 13:
					err = svc.Write(lba, bufs[c])
				case r < 19:
					err = svc.Read(lba, bufs[c])
				default:
					err = svc.Trim(lba, run)
				}
				if err != nil {
					t.Fatalf("%d shards, stream %d op %d: %v", shards, c, op, err)
				}
			}
		}
		if err := svc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		done := svc.MaxVirtualTime()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	got := make(map[int]sim.Time)
	for _, want := range []struct {
		shards int
		ns     sim.Time
	}{{1, 62870560}, {4, 19601380}, {16, 11283340}} {
		got[want.shards] = makespan(want.shards)
		if got[want.shards] != want.ns {
			t.Errorf("%d shards: virtual makespan %d ns, want %d", want.shards, got[want.shards], want.ns)
		}
	}
	if got[1] < 2*got[16] {
		t.Errorf("16 shards finish in %d ns, 1 shard in %d: less than 2x", got[16], got[1])
	}
}
