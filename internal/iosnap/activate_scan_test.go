package iosnap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"iosnap/internal/bitmap"
	"iosnap/internal/faultinject"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// referenceFold is what the activation scan used to do with its candidates:
// a map keyed by LBA that a later candidate replaces only with a strictly
// higher sequence number, then a comparison sort of what is left.
func referenceFold(cands []actCand) []ftlmap.Entry {
	type best struct {
		addr nand.PageAddr
		seq  uint64
	}
	entries := make(map[uint64]best)
	for _, c := range cands {
		if cur, ok := entries[c.lba]; !ok || c.seq > cur.seq {
			entries[c.lba] = best{c.addr, c.seq}
		}
	}
	out := make([]ftlmap.Entry, 0, len(entries))
	for lba, e := range entries {
		out = append(out, ftlmap.Entry{Key: lba, Val: uint64(e.addr)})
	}
	slices.SortFunc(out, func(a, b ftlmap.Entry) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// TestSortFoldCandsMatchReference: the radix sort is a stable sort by LBA and
// the fold keeps the old map's rule, on random candidates with duplicate LBAs
// (distinct and equal sequence numbers), LBAs that need every radix pass, and
// the inputs a pass count of zero has to survive.
func TestSortFoldCandsMatchReference(t *testing.T) {
	rng := sim.NewRNG(99)
	check := func(name string, cands []actCand) {
		t.Helper()
		stable := slices.Clone(cands)
		slices.SortStableFunc(stable, func(a, b actCand) int { return cmp.Compare(a.lba, b.lba) })
		want := referenceFold(cands)
		sorted := sortCands(slices.Clone(cands))
		if !slices.Equal(sorted, stable) {
			t.Fatalf("%s: radix sort of %d candidates is not the stable sort by LBA", name, len(cands))
		}
		if got := foldCands(sorted); !slices.Equal(got, want) {
			t.Fatalf("%s: fold kept %d entries, the map rule %d (or different ones)", name, len(got), len(want))
		}
	}
	check("empty", nil)
	check("one", []actCand{{lba: 7, addr: 3, seq: 1}})
	check("one at LBA 0", []actCand{{lba: 0, addr: 3, seq: 1}})
	check("all LBA 0", []actCand{{0, 1, 5}, {0, 2, 9}, {0, 3, 9}, {0, 4, 2}})
	check("equal seq keeps the first", []actCand{{4, 10, 6}, {2, 11, 1}, {4, 12, 6}, {4, 13, 6}})
	for _, span := range []uint64{1, 5, 300, 2047, 2048, 1 << 22, 1 << 34, 1 << 63} {
		for _, n := range []int{2, 3, 100, 5000} {
			cands := make([]actCand, n)
			for i := range cands {
				lba := rng.Uint64() % span
				if span > 1<<33 && i%3 == 0 {
					lba |= 1 << 33 // a fourth pass, and beyond
				}
				cands[i] = actCand{lba: lba, addr: nand.PageAddr(i), seq: 1 + rng.Uint64()%8}
			}
			check(fmt.Sprintf("span %d n %d", span, n), cands)
		}
	}
}

// bruteForceView is the definition of an activated view, computed the slow
// way from the device as it stands: for every LBA, the data page with the
// highest sequence number among the pages valid in the snapshot's epoch.
func bruteForceView(t *testing.T, f *FTL, e bitmap.Epoch) map[uint64]nand.PageAddr {
	t.Helper()
	type best struct {
		addr nand.PageAddr
		seq  uint64
	}
	found := make(map[uint64]best)
	for p := int64(0); p < f.cfg.Nand.TotalPages(); p++ {
		addr := nand.PageAddr(p)
		if !f.Dev.IsProgrammed(addr) || !f.vstore.Test(e, p) {
			continue
		}
		oob, err := f.Dev.PageOOB(addr)
		if err != nil {
			t.Fatal(err)
		}
		h, err := header.Unmarshal(oob)
		if err != nil || h.Type != header.TypeData {
			continue
		}
		if cur, ok := found[h.LBA]; !ok || h.Seq > cur.seq {
			found[h.LBA] = best{addr, h.Seq}
		}
	}
	out := make(map[uint64]nand.PageAddr, len(found))
	for lba, b := range found {
		out[lba] = b.addr
	}
	return out
}

// checkViewAgainstDevice compares a view's whole forward map with the brute
// force, and its contents with the model frozen at snapshot time.
func checkViewAgainstDevice(t *testing.T, f *FTL, vw *View, frozen *model.Image, now sim.Time) {
	t.Helper()
	want := bruteForceView(t, f, vw.snap.Epoch)
	if len(want) != len(frozen.LBAs()) {
		t.Fatalf("brute force finds %d LBAs in the snapshot, the model froze %d", len(want), len(frozen.LBAs()))
	}
	if vw.MappedSectors() != len(want) {
		t.Fatalf("view maps %d sectors, brute force %d", vw.MappedSectors(), len(want))
	}
	for lba, addr := range want {
		if got, ok := vw.v.fmap.Lookup(lba); !ok || got != uint64(addr) {
			t.Fatalf("LBA %d: view maps to page %d (mapped %v), brute force says %d", lba, got, ok, addr)
		}
	}
	verifyImage(t, "view", frozen, f.SectorSize(), vw.Read, now)
}

// actBranches counts, from outside, which paths of onBlockMoved an in-flight
// scan has been through: it looks at the scan's state after every foreground
// step.
type actBranches struct {
	repointed int // a candidate of a scanned segment is in moved: found by address
	jumped    int // cands holds more than the scanned ranges cover: appended by the cleaner
	rekeyed   int // a moved entry changed address again: found through moved
	phase2    int // a final translation changed between two looks: found by LBA
	prevMoved map[int]nand.PageAddr
	prevSort  []ftlmap.Entry
	gcCopied  int64 // the cleaner's copy count at the last look at the scan state
}

func (b *actBranches) observe(a *Activation) { b.observeScan(a.scan) }

func (b *actBranches) observeScan(a *scan) {
	if a.done {
		return
	}
	if a.sortedBuilt {
		if b.prevSort != nil && !slices.Equal(b.prevSort, a.sorted) {
			b.phase2++
		}
		b.prevSort = slices.Clone(a.sorted)
		return
	}
	if a.f.stats.GCCopied == b.gcCopied {
		return // nothing moved since
	}
	b.gcCopied = a.f.stats.GCCopied
	scanned := 0
	for _, r := range a.scanned {
		scanned += r.hi - r.lo
	}
	if len(a.cands) > scanned {
		b.jumped++
	}
	cur := make(map[int]nand.PageAddr, len(a.moved))
	for addr, i := range a.moved {
		cur[i] = addr
		inRange := slices.ContainsFunc(a.scanned, func(r candRange) bool { return r.lo <= i && i < r.hi })
		if prev, seen := b.prevMoved[i]; seen && prev != addr {
			b.rekeyed++
		} else if !seen && inRange {
			b.repointed++
		}
	}
	b.prevMoved = cur
}

// TestActivationMatchesBruteForce is the equivalence proof of the
// validity-driven scan: on 16-page segments (most start off a word boundary)
// and 256-page ones, with the full and the selective scan list, a synchronous
// activation and a rate-limited background one — under overwrites that make
// the cleaner move the snapshot's blocks while the scan and then the
// reconstruction are in flight — must publish exactly the brute-force view.
func TestActivationMatchesBruteForce(t *testing.T) {
	var total actBranches
	for _, pps := range []int{16, 256} {
		for _, selective := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				nc := testConfig().Nand
				nc.PagesPerSegment = pps
				cfg := DefaultConfig(nc) // UserSectors follows the geometry
				cfg.GCWindow = 10 * sim.Millisecond
				cfg.BitmapPageBits = 64
				cfg.SelectiveScan = selective
				f, err := New(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ss := f.SectorSize()
				space := f.Sectors() * 3 / 8 // the snapshot pins as much again
				rng := sim.NewRNG(seed*1000 + uint64(pps))
				active := model.NewImage()
				now := sim.Time(0)
				ver := uint64(0)
				write := func() {
					t.Helper()
					f.Sched.RunUntil(now)
					lba := rng.Int63n(space)
					ver++
					d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, ver))
					if err != nil {
						t.Fatalf("pps %d seed %d: write: %v", pps, seed, err)
					}
					active.Write(lba, ver)
					now = d
				}
				// Age the log past its first wrap so the snapshot's blocks are
				// spread over cleaned and uncleaned segments.
				for i := 0; i < 20*pps; i++ {
					write()
				}
				snap, d, err := f.CreateSnapshot(now)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				frozen := active.Fork()

				// One segment scan per work period, then a sleep long enough
				// for the foreground to fill a segment and the cleaner to run.
				limit := ratelimit.WorkSleep{
					Work:  sim.Duration(pps) * cfg.Nand.OOBScanPerPage,
					Sleep: sim.Duration(pps) * 6 * sim.Microsecond,
				}
				act, d, err := f.Activate(now, snap.ID, limit, false)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				var seen actBranches
				gcBefore := f.Stats().GCCopied
				for i := 0; !act.Ready(); i++ {
					if i > 400*pps {
						t.Fatalf("pps %d seed %d: activation never finished", pps, seed)
					}
					write()
					seen.observe(act)
				}
				if f.Stats().GCCopied == gcBefore {
					t.Fatalf("pps %d seed %d: the cleaner moved nothing during the activation", pps, seed)
				}
				bg, err := act.View()
				if err != nil {
					t.Fatal(err)
				}
				checkViewAgainstDevice(t, f, bg, frozen, now)

				// The same snapshot again, synchronously, on the device the
				// churn left behind; then more churn under both views, which
				// the cleaner must keep re-pointing (blockMoved step 4).
				sync, d, err := f.ActivateSync(now, snap.ID, noLimit, false)
				if err != nil {
					t.Fatal(err)
				}
				now = d
				checkViewAgainstDevice(t, f, sync, frozen, now)
				for i := 0; i < 4*pps; i++ {
					write()
				}
				checkViewAgainstDevice(t, f, bg, frozen, now)
				checkViewAgainstDevice(t, f, sync, frozen, now)
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("pps %d seed %d: %v", pps, seed, err)
				}
				total.repointed += seen.repointed
				total.jumped += seen.jumped
				total.rekeyed += seen.rekeyed
				total.phase2 += seen.phase2
			}
		}
		// Every path of onBlockMoved must have been walked at this geometry.
		if total.repointed == 0 || total.jumped == 0 || total.rekeyed == 0 || total.phase2 == 0 {
			t.Fatalf("pps %d: onBlockMoved paths taken: by address %d, jump %d, through moved %d, by LBA in reconstruction %d — each must be > 0",
				pps, total.repointed, total.jumped, total.rekeyed, total.phase2)
		}
		t.Logf("pps %d: onBlockMoved paths taken: by address %d, jump %d, through moved %d, by LBA in reconstruction %d",
			pps, total.repointed, total.jumped, total.rekeyed, total.phase2)
		total = actBranches{}
	}
}

// TestActivationScanFaultLeaksNoEpoch: an activation that dies on a scan
// error must take the epoch beginActivation allocated with it, exactly as
// Cancel does. That epoch inherits every bit of the snapshot's, so left live
// it keeps the snapshot's blocks merged-valid after the snapshot is deleted,
// and a checkpoint writes it out as live, so a remount keeps the leak.
func TestActivationScanFaultLeaksNoEpoch(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	const sectors = 40
	for lba := int64(0); lba < sectors; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	liveBefore := len(f.vstore.LiveEpochs()) // the snapshot's and the active one

	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindError, Op: nand.OpScanOOB, Seg: faultinject.AnySeg, AfterN: 2,
	})
	plan.Arm(f.Device())
	_, now, err = f.ActivateSync(now, snap.ID, noLimit, false)
	plan.Disarm(f.Device())
	if !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("activation over a failing scan: %v, want the injected device failure", err)
	}
	if len(f.scans) != 0 {
		t.Fatal("failed activation still registered as in flight")
	}
	if got := len(f.vstore.LiveEpochs()); got != liveBefore {
		t.Fatalf("failed activation leaked its epoch: %d live epochs %v, want %d", got, f.vstore.LiveEpochs(), liveBefore)
	}

	// Delete the snapshot and overwrite everything it held: nothing may keep
	// the old versions valid.
	if now, err = f.DeleteSnapshot(now, snap.ID); err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < sectors; lba++ {
		f.Sched.RunUntil(now)
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)
	check := func(f *FTL, when string) {
		t.Helper()
		if got := len(f.vstore.LiveEpochs()); got != 1 {
			t.Fatalf("%s: %d live epochs %v, want only the active one", when, got, f.vstore.LiveEpochs())
		}
		data, notes := 0, 0
		for p := int64(0); p < f.cfg.Nand.TotalPages(); p++ {
			if f.vstore.MergeRange(f.vstore.LiveEpochs(), p, p+1).Count() == 0 {
				continue
			}
			oob, err := f.Dev.PageOOB(nand.PageAddr(p))
			if err != nil {
				t.Fatalf("%s: merged-valid page %d: %v", when, p, err)
			}
			if h, err := header.Unmarshal(oob); err == nil && h.Type == header.TypeData {
				data++
			} else {
				notes++
			}
		}
		// Create, activate and delete each left a note; notes stay valid.
		if data != sectors || notes != 3 {
			t.Fatalf("%s: %d merged-valid data pages and %d notes for %d mapped sectors and 3 notes", when, data, notes, sectors)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check(f, "after the delete")

	if now, err = f.Close(now); err != nil {
		t.Fatal(err)
	}
	f2, _, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Stats().RecoveryTailBounded {
		t.Fatal("remount fell back to the full scan: the checkpoint's epoch liveness went untested")
	}
	check(f2, "after Close and Recover")
}

// TestCleanerFixUpCostsLiveEpochsNotHistory: after 200 create → activate →
// deactivate → delete cycles, every epoch pinned as it is created, the store
// remembers 400+ epochs, but the cleaner's per-block fix-up walks only the
// live ones and allocates nothing. Once the pins go, the whole store is as
// small as the live epochs.
func TestCleanerFixUpCostsLiveEpochsNotHistory(t *testing.T) {
	// Every create, activate, deactivate and delete leaves a note that stays
	// valid for good: 800 pages by the end, so this needs a roomier device
	// than the 256-page default.
	nc := testConfig().Nand
	nc.PagesPerSegment, nc.Segments = 64, 64
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pins := newHistoryPins(f)
	ss := f.SectorSize()
	now := sim.Time(0)
	rng := sim.NewRNG(4)
	const space = 300
	var kept []*Snapshot
	for cycle := 0; cycle < 200; cycle++ {
		for i := 0; i < 30; i++ {
			f.Sched.RunUntil(now)
			lba := rng.Int63n(space)
			if now, err = f.Write(now, lba, sectorPattern(ss, lba, byte(cycle))); err != nil {
				t.Fatal(err)
			}
		}
		snap, d, err := f.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		pins.pin()
		vw, d, err := f.ActivateSync(d, snap.ID, noLimit, false)
		if err != nil {
			t.Fatal(err)
		}
		pins.pin()
		if now, err = vw.Deactivate(d); err != nil {
			t.Fatal(err)
		}
		if kept = append(kept, snap); len(kept) > 2 { // two snapshots stay live
			if now, err = f.DeleteSnapshot(now, kept[0].ID); err != nil {
				t.Fatal(err)
			}
			kept = kept[1:]
		}
	}
	now = f.Sched.Drain(now)
	if f.Stats().GCRuns == 0 {
		t.Fatal("200 cycles produced no cleaning; the history never met the cleaner")
	}
	if got := len(f.vstore.Epochs()); got < 400 {
		t.Fatalf("store remembers %d epochs, want the history of 200 creates and 200 activations", got)
	}
	if got, bound := len(f.vstore.LiveEpochs()), len(kept)+len(f.views)+1; got > bound {
		t.Fatalf("%d live epochs, want at most %d (live snapshots + views + 1)", got, bound)
	}

	// A block both the active epoch and a live snapshot hold, carried to a
	// page of a free segment and back: two fix-ups per run, state restored.
	lba, old := uint64(0), nand.PageAddr(0)
	for ; ; lba++ {
		if lba == space {
			t.Fatal("no block shared by the active epoch and a kept snapshot")
		}
		if a, ok := f.ActiveMap.Lookup(lba); ok && f.vstore.Test(kept[1].Epoch, int64(a)) {
			old = nand.PageAddr(a)
			break
		}
	}
	oob, err := f.Dev.PageOOB(old)
	if err != nil {
		t.Fatal(err)
	}
	h, err := header.Unmarshal(oob)
	if err != nil {
		t.Fatal(err)
	}
	free := f.FreeSegs[0]
	dst := f.Dev.Addr(free, 0)
	victim := f.Dev.SegmentOf(old)
	allocs := testing.AllocsPerRun(100, func() {
		f.blockMoved(victim, old, dst, h)
		f.blockMoved(free, dst, old, h)
	})
	if len(f.holders) < 2 {
		t.Fatalf("the moved block had %d holders, want the active epoch and a snapshot", len(f.holders))
	}
	if allocs != 0 {
		t.Fatalf("the cleaner's per-block fix-up allocates %.1f times per two moves, want 0", allocs)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pins.release(now)
	if got, bound := len(f.vstore.Epochs()), len(kept)+len(f.views)+1; got > bound {
		t.Fatalf("the store holds %d epochs once the pins went, want at most %d (live snapshots + views + 1)", got, bound)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
