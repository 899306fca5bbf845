package iosnap

import (
	"bytes"
	"fmt"
	"testing"

	"iosnap/internal/sim"
)

// checkInvariants asserts the exported cross-structure checker passes; the
// checks themselves live in invariants.go (CheckInvariants), shared with the
// torture harness and iosnapctl.
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedInvariantStress drives a long randomized mix of every
// operation the FTL supports — writes, trims, snapshot create/delete,
// readable and writable activations, view writes, deactivations, freezes,
// and crash-recoveries — checking the structural invariants and full
// content model along the way.
func TestRandomizedInvariantStress(t *testing.T) {
	for _, seed := range []uint64{101, 202, 303, 404, 505, 606, 707, 808} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			nc := testConfig().Nand
			nc.Segments = 32
			cfg := DefaultConfig(nc)
			cfg.GCWindow = 10 * sim.Millisecond
			cfg.BitmapPageBits = 64
			cfg.CoWPageCost = 10 * sim.Microsecond
			f, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			ss := f.SectorSize()
			rng := sim.NewRNG(seed)
			now := sim.Time(0)
			model := make(map[int64]byte)
			snapModels := make(map[SnapshotID]map[int64]byte)
			var liveSnaps []SnapshotID
			type liveView struct {
				view  *View
				model map[int64]byte
			}
			var views []liveView
			const space = 100

			for step := 0; step < 1200; step++ {
				f.Sched.RunUntil(now)
				switch op := rng.Intn(100); {
				case op < 55: // active write
					lba := rng.Int63n(space)
					v := byte(step%251 + 1)
					d, err := f.Write(now, lba, sectorPattern(ss, lba, v))
					if err != nil {
						t.Fatalf("step %d write: %v", step, err)
					}
					model[lba] = v
					now = d
				case op < 60: // trim
					lba := rng.Int63n(space)
					d, err := f.Trim(now, lba, 1)
					if err != nil {
						t.Fatalf("step %d trim: %v", step, err)
					}
					delete(model, lba)
					now = d
				case op < 67 && len(liveSnaps) < 2: // snapshot
					snap, d, err := f.CreateSnapshot(now)
					if err != nil {
						t.Fatalf("step %d create: %v", step, err)
					}
					now = d
					frozen := make(map[int64]byte, len(model))
					for k, vv := range model {
						frozen[k] = vv
					}
					snapModels[snap.ID] = frozen
					liveSnaps = append(liveSnaps, snap.ID)
				case op < 72 && len(liveSnaps) > 0: // delete
					idx := rng.Intn(len(liveSnaps))
					id := liveSnaps[idx]
					d, err := f.DeleteSnapshot(now, id)
					if err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					now = d
					delete(snapModels, id)
					liveSnaps = append(liveSnaps[:idx], liveSnaps[idx+1:]...)
				case op < 76 && len(liveSnaps) > 0 && len(views) < 1: // activate
					id := liveSnaps[rng.Intn(len(liveSnaps))]
					writable := rng.Intn(2) == 0
					view, d, err := f.ActivateSync(now, id, noLimit, writable)
					if err != nil {
						t.Fatalf("step %d activate: %v", step, err)
					}
					now = d
					vm := make(map[int64]byte, len(snapModels[id]))
					for k, vv := range snapModels[id] {
						vm[k] = vv
					}
					views = append(views, liveView{view: view, model: vm})
				case op < 80 && len(views) > 0: // view write (if writable)
					lv := &views[rng.Intn(len(views))]
					if lv.view.Writable() {
						lba := rng.Int63n(space)
						v := byte(step%250 + 2)
						d, err := lv.view.Write(now, lba, sectorPattern(ss, lba, v))
						if err != nil {
							t.Fatalf("step %d view write: %v", step, err)
						}
						lv.model[lba] = v
						now = d
					}
				case op < 84 && len(views) > 0: // deactivate
					idx := rng.Intn(len(views))
					d, err := views[idx].view.Deactivate(now)
					if err != nil {
						t.Fatalf("step %d deactivate: %v", step, err)
					}
					now = d
					views = append(views[:idx], views[idx+1:]...)
				case op < 88: // freeze window
					if _, err := f.Freeze(now); err != nil {
						t.Fatalf("step %d freeze: %v", step, err)
					}
					if _, err := f.Write(now, 0, make([]byte, ss)); err == nil {
						t.Fatalf("step %d: frozen write succeeded", step)
					}
					if _, err := f.Unfreeze(now); err != nil {
						t.Fatal(err)
					}
				case op < 92 && len(views) == 0: // crash + recover
					now = f.Sched.Drain(now)
					rec, d, err := Recover(cfg, f.Dev, nil, now)
					if err != nil {
						t.Fatalf("step %d recover: %v", step, err)
					}
					f = rec
					now = d
				default: // verify a random LBA on the active device
					lba := rng.Int63n(space)
					buf := make([]byte, ss)
					if _, err := f.Read(now, lba, buf); err != nil {
						t.Fatalf("step %d read: %v", step, err)
					}
					if v, ok := model[lba]; ok {
						if !bytes.Equal(buf, sectorPattern(ss, lba, v)) {
							t.Fatalf("step %d: LBA %d wrong", step, lba)
						}
					}
				}
				if step%200 == 199 {
					now = f.Sched.Drain(now)
					checkInvariants(t, f)
					// Views must still show their frozen-or-written state.
					buf := make([]byte, ss)
					for _, lv := range views {
						for lba, v := range lv.model {
							if _, err := lv.view.Read(now, lba, buf); err != nil {
								t.Fatalf("view read %d: %v", lba, err)
							}
							if !bytes.Equal(buf, sectorPattern(ss, lba, v)) {
								t.Fatalf("view LBA %d wrong at step %d", lba, step)
							}
						}
					}
				}
			}
			now = f.Sched.Drain(now)
			checkInvariants(t, f)
			// Final full verification of active + every live snapshot.
			buf := make([]byte, ss)
			for lba, v := range model {
				if _, err := f.Read(now, lba, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, sectorPattern(ss, lba, v)) {
					t.Fatalf("final: active LBA %d wrong", lba)
				}
			}
			for id, frozen := range snapModels {
				view, d, err := f.ActivateSync(now, id, noLimit, false)
				if err != nil {
					t.Fatalf("final activate %d: %v", id, err)
				}
				now = d
				for lba, v := range frozen {
					if _, err := view.Read(now, lba, buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, sectorPattern(ss, lba, v)) {
						t.Fatalf("final: snapshot %d LBA %d wrong", id, lba)
					}
				}
				if _, err := view.Deactivate(now); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
