package iosnap

import (
	"fmt"
	"strings"
	"testing"

	"iosnap/internal/header"
	"iosnap/internal/model"
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
			m := model.New[SnapshotID]()
			type liveView struct {
				view  *View
				image *model.Image
			}
			var views []liveView
			const space = 100

			for step := 0; step < 1200; step++ {
				f.Sched.RunUntil(now)
				switch op := rng.Intn(100); {
				case op < 55: // active write
					lba := rng.Int63n(space)
					v := uint64(step + 1)
					d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
					if err != nil {
						t.Fatalf("step %d write: %v", step, err)
					}
					m.Active.Write(lba, v)
					now = d
				case op < 60: // trim
					lba := rng.Int63n(space)
					d, err := f.Trim(now, lba, 1)
					if err != nil {
						t.Fatalf("step %d trim: %v", step, err)
					}
					m.Active.Trim(lba)
					now = d
				case op < 67 && len(m.IDs()) < 2: // snapshot
					snap, d, err := f.CreateSnapshot(now)
					if err != nil {
						t.Fatalf("step %d create: %v", step, err)
					}
					now = d
					m.Freeze(snap.ID, m.Active)
				case op < 72 && len(m.IDs()) > 0: // delete
					ids := m.IDs()
					id := ids[rng.Intn(len(ids))]
					d, err := f.DeleteSnapshot(now, id)
					if err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					now = d
					m.Delete(id)
				case op < 76 && len(m.IDs()) > 0 && len(views) < 1: // activate
					ids := m.IDs()
					id := ids[rng.Intn(len(ids))]
					writable := rng.Intn(2) == 0
					view, d, err := f.ActivateSync(now, id, noLimit, writable)
					if err != nil {
						t.Fatalf("step %d activate: %v", step, err)
					}
					now = d
					views = append(views, liveView{view: view, image: m.Snapshot(id).Fork()})
				case op < 80 && len(views) > 0: // view write (if writable)
					lv := &views[rng.Intn(len(views))]
					if lv.view.Writable() {
						lba := rng.Int63n(space)
						v := uint64(step + 1)
						d, err := lv.view.Write(now, lba, model.Sectors(ss, lba, 1, v))
						if err != nil {
							t.Fatalf("step %d view write: %v", step, err)
						}
						lv.image.Write(lba, v)
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
					// Only a written LBA: a trim is not logged, so a crash
					// recovery can bring a trimmed sector back.
					if v := m.Active.Version(lba); v != 0 && !model.Check(buf, lba, v) {
						t.Fatalf("step %d: LBA %d does not hold version %d", step, lba, v)
					}
				}
				if step%200 == 199 {
					now = f.Sched.Drain(now)
					checkInvariants(t, f)
					// Views must still show their frozen-or-written state.
					for _, lv := range views {
						verifyImage(t, fmt.Sprintf("view at step %d", step), lv.image, ss, lv.view.Read, now)
					}
				}
			}
			now = f.Sched.Drain(now)
			checkInvariants(t, f)
			// Final full verification of active + every live snapshot.
			// A crash recovery can bring a trimmed sector back, so a snapshot
			// may map more sectors than it froze: check only the frozen ones.
			verifyImage(t, "final: active", m.Active, ss, f.Read, now)
			for _, id := range m.IDs() {
				view, d, err := f.ActivateSync(now, id, noLimit, false)
				if err != nil {
					t.Fatalf("final activate %d: %v", id, err)
				}
				verifyImage(t, fmt.Sprintf("final: snapshot %d", id), m.Snapshot(id), ss, view.Read, d)
				if now, err = view.Deactivate(d); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestInvariantsCatchLBAOutsideDevice: a translation for an LBA past the
// device's sectors fails the checker, even when its page is a data page of
// that LBA, valid in the active epoch, as a mount of a crafted log made one.
func TestInvariantsCatchLBAOutsideDevice(t *testing.T) {
	f := newTestFTL(t)
	now, err := f.Write(0, 3, sectorPattern(f.SectorSize(), 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.Sched.Drain(now)
	addr := f.Dev.Addr(f.HeadSeg, f.Dev.NextFreeInSegment(f.HeadSeg))
	programAfterHead(t, f.Dev, f.HeadSeg, header.Header{Type: header.TypeData, LBA: 5000, Epoch: uint64(f.active.epoch), Seq: f.Seq + 1})
	f.active.fmap.Insert(5000, uint64(addr))
	f.vstore.Set(f.active.epoch, int64(addr))
	f.acct.onViewSet(int64(addr))
	if err := f.CheckInvariants(); err == nil {
		t.Fatalf("LBA 5000 mapped on a %d-sector device passed the invariants", f.cfg.UserSectors)
	}
}

// TestInvariantsCatchUnreapedEpoch: a deleted epoch a reap would remove —
// here one left with a single child by a delete that skipped the reap —
// fails the checker until it is reaped.
func TestInvariantsCatchUnreapedEpoch(t *testing.T) {
	f := buildOneSnapshot(t)
	// Snapshot 2 takes over as the active view's parent: nothing pins 1.
	if _, _, err := f.CreateSnapshot(0); err != nil {
		t.Fatal(err)
	}
	s1, _ := f.tree.Lookup(1)
	s1.Deleted = true
	if err := f.vstore.DeleteEpoch(s1.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "unreaped") {
		t.Fatalf("a reapable deleted epoch passed the invariants: %v", err)
	}
	f.reap()
	checkInvariants(t, f)
}
