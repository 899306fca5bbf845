package iosnap

import (
	"fmt"
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/sim"
)

// TestExportStorm is the replication storm: four independent source→replica
// pairs run in parallel goroutines (the CI -race target), and within each
// pair three export jobs — one per frozen generation — are pumped
// round-robin, interleaved with foreground writes, so several exports are
// in flight over the same device at once while its contents churn. Every
// stream must land bit-identically for its own frozen generation.
func TestExportStorm(t *testing.T) {
	for p := 0; p < 4; p++ {
		t.Run(fmt.Sprintf("pair%d", p), func(t *testing.T) {
			t.Parallel()
			f := newTestFTL(t)
			ss := f.SectorSize()
			now := sim.Time(0)
			rng := sim.NewRNG(uint64(100 + p))

			// Three generations of churn, each frozen in the model.
			m := model.New[SnapshotID]()
			for g := 0; g < 3; g++ {
				for i := 0; i < 40; i++ {
					lba := rng.Int63n(64)
					v := uint64(40*g + i + 1)
					f.Sched.RunUntil(now)
					d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
					if err != nil {
						t.Fatalf("gen %d write: %v", g, err)
					}
					now = d
					m.Active.Write(lba, v)
				}
				snap, d, err := f.CreateSnapshot(now)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				m.Freeze(snap.ID, m.Active)
			}
			snaps := m.IDs()

			// All three exports in flight at once, pumped round-robin with
			// a foreground write squeezed between every round.
			exports := make([]*Export, len(snaps))
			for i, id := range snaps {
				x, d, err := f.BeginExport(now, ExportOpts{Snapshot: id})
				if err != nil {
					t.Fatal(err)
				}
				now = d
				exports[i] = x
			}
			for {
				pending := false
				for _, x := range exports {
					if x.Done() {
						continue
					}
					pending = true
					d, _ := x.Run(now)
					if d > now {
						now = d
					}
				}
				if !pending {
					break
				}
				lba := rng.Int63n(64)
				f.Sched.RunUntil(now)
				d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, 1000))
				if err != nil {
					t.Fatalf("storm write: %v", err)
				}
				now = d
			}

			// Each stream restores its own frozen generation exactly.
			for i, x := range exports {
				man, stream, err := x.Result()
				if err != nil {
					t.Fatalf("export %d: %v", i, err)
				}
				dst := newTestFTL(t)
				_, d2, err := ReceiveInto(dst, now, stream, nil)
				if err != nil {
					t.Fatalf("receive %d: %v", i, err)
				}
				d2 = dst.Scheduler().Drain(d2)
				if bad, _, err := VerifyReplica(dst, d2, man); err != nil {
					t.Fatalf("verify %d: %v", i, err)
				} else if len(bad) > 0 {
					t.Fatalf("replica %d diverges at %d sectors", i, len(bad))
				}
				verifyImage(t, fmt.Sprintf("replica %d", i), m.Snapshot(snaps[i]), ss, dst.Read, d2)
			}
		})
	}
}
