package iosnap

import (
	"fmt"
	"slices"
	"testing"

	"iosnap/internal/ftlmap"
	"iosnap/internal/model"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// mapEntries lists a view's forward map in LBA order.
func mapEntries(vw *View) []ftlmap.Entry {
	var out []ftlmap.Entry
	vw.v.fmap.All(func(k, v uint64) bool {
		out = append(out, ftlmap.Entry{Key: k, Val: v})
		return true
	})
	return out
}

// TestActivationFromBaseMatchesFull is the based twin of
// TestActivationMatchesBruteForce: on 16-page and 256-page segments, with the
// full and the selective scan list, a rate-limited background activation
// from a base view — older than the target, newer than it, on another branch
// of the snapshot tree, and one whose own snapshot was deleted after it was
// activated — runs under overwrites that make the cleaner move blocks while
// the scan and then the merge are in flight. Its map must equal a full
// activation's entry for entry and in footprint, and the view must read the
// target's frozen image.
func TestActivationFromBaseMatchesFull(t *testing.T) {
	var total, prev actBranches
	for _, pps := range []int{16, 256} {
		for _, selective := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				nc := testConfig().Nand
				nc.PagesPerSegment = pps
				cfg := DefaultConfig(nc)
				cfg.GCWindow = 10 * sim.Millisecond
				cfg.BitmapPageBits = 64
				cfg.SelectiveScan = selective
				f, err := New(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ss := f.SectorSize()
				space := f.Sectors() / 8 // five snapshots and the churn pin the rest
				delta := int(space / 2)  // writes between two snapshots
				rng := sim.NewRNG(seed*1000 + uint64(pps))
				active := model.NewImage()
				now := sim.Time(0)
				ver := uint64(0)
				write := func(dev func(sim.Time, int64, []byte) (sim.Time, error), im *model.Image) {
					t.Helper()
					f.Sched.RunUntil(now)
					lba := rng.Int63n(space)
					ver++
					d, err := dev(now, lba, model.Sectors(ss, lba, 1, ver))
					if err != nil {
						t.Fatalf("pps %d seed %d: write: %v", pps, seed, err)
					}
					im.Write(lba, ver)
					now = d
				}
				churn := func(n int) {
					for i := 0; i < n; i++ {
						write(f.Write, active)
					}
				}
				freeze := func() (*Snapshot, *model.Image) {
					t.Helper()
					snap, d, err := f.CreateSnapshot(now)
					if err != nil {
						t.Fatal(err)
					}
					now = d
					return snap, active.Fork()
				}
				activate := func(id SnapshotID) *View {
					t.Helper()
					vw, d, err := f.ActivateSync(now, id, noLimit, false)
					if err != nil {
						t.Fatal(err)
					}
					now = d
					return vw
				}
				deactivate := func(vw *View) {
					t.Helper()
					d, err := vw.Deactivate(now)
					if err != nil {
						t.Fatal(err)
					}
					now = d
				}

				churn(20 * pps)
				s1, m1 := freeze()
				churn(delta)
				for i := 0; i < 4; i++ {
					lba := rng.Int63n(space)
					if now, err = f.Trim(now, lba, 1); err != nil {
						t.Fatal(err)
					}
					active.Trim(lba)
				}
				s2, m2 := freeze()
				// A branch: S3 is a snapshot of a writable view of S1.
				w, d, err := f.ActivateSync(now, s1.ID, noLimit, true)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				wm := m1.Fork()
				for i := 0; i < delta; i++ {
					write(w.Write, wm)
				}
				s3, d, err := w.CreateSnapshot(now)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				m3 := wm.Fork()
				deactivate(w)
				churn(delta)
				s4, m4 := freeze()
				churn(delta)
				s5, _ := freeze()
				gone := activate(s5.ID)
				if now, err = f.DeleteSnapshot(now, s5.ID); err != nil {
					t.Fatal(err)
				}

				cases := []struct {
					name   string
					base   *View
					target *Snapshot
					frozen *model.Image
				}{
					{"older", activate(s1.ID), s4, m4},
					{"newer", activate(s4.ID), s2, m2},
					{"branch", activate(s3.ID), s2, m2},
					{"deleted", gone, s4, m4},
					{"same", activate(s2.ID), s2, m2},
				}
				for _, c := range cases {
					name := fmt.Sprintf("pps %d selective %v seed %d base %s", pps, selective, seed, c.name)
					// The work/sleep ratio of TestActivationMatchesBruteForce's
					// limit, in periods short enough that a delta of a few
					// entries yields between its scan and its merge.
					limit := ratelimit.WorkSleep{
						Work:  8 * reconstructCPUPerEntry,
						Sleep: 160 * reconstructCPUPerEntry,
					}
					act, d, err := f.beginActivation(now, c.target.ID, limit, false, c.base)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					now = d
					f.Sched.Schedule(now, act)
					var seen actBranches
					gcBefore := f.Stats().GCCopied
					for i := 0; !act.Ready(); i++ {
						if i > 400*pps {
							t.Fatalf("%s: activation never finished", name)
						}
						churn(1)
						seen.observe(act)
					}
					if c.name != "same" && f.Stats().GCCopied == gcBefore {
						t.Fatalf("%s: the cleaner moved nothing during the activation", name)
					}
					based, err := act.View()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					full := activate(c.target.ID)
					if got, want := mapEntries(based), mapEntries(full); !slices.Equal(got, want) {
						t.Fatalf("%s: based map has %d entries, a full activation %d (or different ones)", name, len(got), len(want))
					}
					if got, want := based.MapMemory(), full.MapMemory(); got != want {
						t.Fatalf("%s: based map takes %d bytes, a full activation %d", name, got, want)
					}
					checkViewAgainstDevice(t, f, based, c.frozen, now)
					// More churn under the published view, which the cleaner
					// must keep re-pointing like any other.
					churn(pps)
					checkViewAgainstDevice(t, f, based, c.frozen, now)
					deactivate(full)
					deactivate(based)
					total.repointed += seen.repointed
					total.jumped += seen.jumped
					total.rekeyed += seen.rekeyed
					total.phase2 += seen.phase2
				}
				verifyImage(t, "branch base", m3, ss, cases[2].base.Read, now)
				for _, c := range cases {
					deactivate(c.base)
				}
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("pps %d seed %d: %v", pps, seed, err)
				}
			}
		}
		t.Logf("pps %d: onBlockMoved paths taken with a base: by address %d, jump %d, through moved %d, by LBA after the scan %d",
			pps, total.repointed-prev.repointed, total.jumped-prev.jumped, total.rekeyed-prev.rekeyed, total.phase2-prev.phase2)
		prev = total
	}
	if total.repointed == 0 || total.jumped == 0 || total.rekeyed == 0 || total.phase2 == 0 {
		t.Fatal("every onBlockMoved path must have been taken with a base")
	}
}

// TestActivateFromRefusesBadBase: a base must be a live read-only view of the
// same device; a refused activation leaves no note and no epoch behind.
func TestActivateFromRefusesBadBase(t *testing.T) {
	f, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for _, dev := range []*FTL{f, other} {
		if now, err = dev.Write(now, 3, model.Sectors(dev.SectorSize(), 3, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if _, now, err = dev.CreateSnapshot(now); err != nil {
			t.Fatal(err)
		}
	}
	writable, now, err := f.ActivateSync(now, 1, noLimit, true)
	if err != nil {
		t.Fatal(err)
	}
	closed, now, err := f.ActivateSync(now, 1, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = closed.Deactivate(now); err != nil {
		t.Fatal(err)
	}
	foreign, now, err := other.ActivateSync(now, 1, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	epochs := len(f.vstore.Epochs())
	notes := f.Stats().SnapshotActivations
	for name, base := range map[string]*View{"writable": writable, "closed": closed, "foreign": foreign} {
		if _, _, err := f.ActivateFrom(now, 1, base); err == nil {
			t.Errorf("%s base accepted", name)
		}
	}
	if len(f.vstore.Epochs()) != epochs || f.Stats().SnapshotActivations != notes {
		t.Fatal("a refused activation left an epoch or a note behind")
	}
}
