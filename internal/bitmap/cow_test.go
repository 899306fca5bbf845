package bitmap

import (
	"slices"
	"testing"

	"iosnap/internal/sim"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(1024, 128) // 8 CoW pages of 128 bits
	if err := s.CreateEpoch(1, NoParent); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSetTest(t *testing.T) {
	s := newTestStore(t)
	if s.Test(1, 100) {
		t.Fatal("fresh store has bits set")
	}
	if cow := s.Set(1, 100); cow {
		t.Fatal("first Set on a fresh page should not be a CoW copy")
	}
	if !s.Test(1, 100) {
		t.Fatal("Set did not stick")
	}
	s.Clear(1, 100)
	if s.Test(1, 100) {
		t.Fatal("Clear did not stick")
	}
	if s.CoWCopies() != 0 {
		t.Fatalf("CoWCopies = %d, want 0", s.CoWCopies())
	}
}

func TestEpochInheritance(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 5)
	s.Set(1, 200)
	if err := s.CreateEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	// Child sees parent's bits without copying anything.
	if !s.Test(2, 5) || !s.Test(2, 200) {
		t.Fatal("child does not inherit parent bits")
	}
	if s.OwnedPages(2) != 0 {
		t.Fatal("inheritance should not allocate pages")
	}
}

func TestCoWOnModify(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 5)
	if err := s.CreateEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	// Clearing an inherited bit must copy the page and leave the parent
	// untouched — this is the exact mechanism of paper Figure 5.
	if cow := s.Clear(2, 5); !cow {
		t.Fatal("modifying inherited page should CoW")
	}
	if s.Test(2, 5) {
		t.Fatal("child still sees cleared bit")
	}
	if !s.Test(1, 5) {
		t.Fatal("parent's frozen bitmap was modified")
	}
	if s.CoWCopies() != 1 {
		t.Fatalf("CoWCopies = %d, want 1", s.CoWCopies())
	}
	// Second modification of the same page must not copy again.
	s.Set(2, 6)
	if s.CoWCopies() != 1 {
		t.Fatalf("CoWCopies after second modify = %d, want 1", s.CoWCopies())
	}
}

func TestClearAbsentBitNoCoW(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 5)
	if err := s.CreateEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	// Clearing a bit in a page that no ancestor owns is a no-op.
	if cow := s.Clear(2, 900); cow {
		t.Fatal("clearing absent bit copied a page")
	}
	if s.OwnedPages(2) != 0 {
		t.Fatal("clearing absent bit allocated a page")
	}
}

func TestGrandparentChain(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 10)
	s.CreateEpoch(2, 1)
	s.Set(2, 20)
	s.CreateEpoch(3, 2)
	if !s.Test(3, 10) || !s.Test(3, 20) {
		t.Fatal("grandchild should see whole chain")
	}
	s.Clear(3, 10)
	if !s.Test(1, 10) || !s.Test(2, 10) {
		t.Fatal("ancestors disturbed by grandchild CoW")
	}
}

func TestMergeRange(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 3)
	s.CreateEpoch(2, 1)
	s.Clear(2, 3) // overwritten in epoch 2
	s.Set(2, 4)

	m := s.MergeRange([]Epoch{1, 2}, 0, 128)
	// Bit 3 valid in snapshot epoch 1, bit 4 valid in active epoch 2.
	if !m.Test(3) || !m.Test(4) {
		t.Fatalf("merged map missing bits: 3=%v 4=%v", m.Test(3), m.Test(4))
	}
	if m.Count() != 2 {
		t.Fatalf("merged count = %d", m.Count())
	}
}

func TestMergeSkipsDeleted(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 3)
	s.CreateEpoch(2, 1)
	s.Clear(2, 3)
	if err := s.DeleteEpoch(1); err != nil {
		t.Fatal(err)
	}
	m := s.MergeRange([]Epoch{1, 2}, 0, 128)
	// With epoch 1 deleted, its only block is free — exactly paper Fig 6C.
	if m.Test(3) {
		t.Fatal("deleted epoch still contributes to merge")
	}
	if !s.Deleted(1) {
		t.Fatal("Deleted() disagrees")
	}
}

func TestDeletedEpochPagesStillInherited(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 3)
	s.CreateEpoch(2, 1)
	s.DeleteEpoch(1)
	// Epoch 2 never modified the page; it must still see the bit through
	// the deleted parent (the data is inherited, hence still live).
	if !s.Test(2, 3) {
		t.Fatal("descendant lost inherited state after parent deletion")
	}
}

func TestCreateEpochErrors(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreateEpoch(1, NoParent); err == nil {
		t.Fatal("duplicate epoch accepted")
	}
	if err := s.CreateEpoch(5, 99); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if err := s.DeleteEpoch(99); err == nil {
		t.Fatal("deleting unknown epoch accepted")
	}
}

func TestCountValid(t *testing.T) {
	s := newTestStore(t)
	for i := int64(0); i < 10; i++ {
		s.Set(1, i)
	}
	if got := s.CountValid(1, 0, 1024); got != 10 {
		t.Fatalf("CountValid = %d", got)
	}
	if got := s.CountValid(1, 5, 8); got != 3 {
		t.Fatalf("CountValid range = %d", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := NewStore(1024, 128)
	s.CreateEpoch(1, NoParent)
	if s.MemoryBytes() != 0 {
		t.Fatal("fresh store consumes memory")
	}
	s.Set(1, 0)
	if s.MemoryBytes() != 128/8 {
		t.Fatalf("MemoryBytes = %d, want 16", s.MemoryBytes())
	}
	if s.TotalPages() != 8 {
		t.Fatalf("TotalPages = %d, want 8", s.TotalPages())
	}
	s.ResetCoWCounter()
	if s.CoWCopies() != 0 {
		t.Fatal("ResetCoWCounter failed")
	}
}

func TestEpochsList(t *testing.T) {
	s := newTestStore(t)
	s.CreateEpoch(3, 1)
	s.CreateEpoch(2, 1)
	if es := s.Epochs(); !slices.Equal(es, []Epoch{1, 2, 3}) {
		t.Fatalf("Epochs = %v, want [1 2 3] whatever the creation order", es)
	}
	if !s.Exists(2) || s.Exists(42) {
		t.Fatal("Exists wrong")
	}
}

// TestCoWStoreMatchesModel is the central property test: arbitrary epoch
// trees with arbitrary Set/Clear sequences must behave exactly like
// independent full-copy bitmaps.
func TestCoWStoreMatchesModel(t *testing.T) {
	rng := sim.NewRNG(7)
	const nBits = 640
	s := NewStore(nBits, 128)
	s.CreateEpoch(0, NoParent)

	type modelEpoch struct {
		bits    map[int64]bool
		mutable bool
	}
	model := map[Epoch]*modelEpoch{0: {bits: map[int64]bool{}, mutable: true}}
	mutable := []Epoch{0}
	all := []Epoch{0}
	next := Epoch(1)

	for step := 0; step < 30000; step++ {
		switch op := rng.Intn(10); {
		case op == 0 && len(all) < 12:
			// Fork a new epoch off a random existing one; freeze the parent
			// (mirrors snapshot create / activate in the FTL).
			parent := all[rng.Intn(len(all))]
			if err := s.CreateEpoch(next, parent); err != nil {
				t.Fatal(err)
			}
			nb := make(map[int64]bool, len(model[parent].bits))
			for k, v := range model[parent].bits {
				nb[k] = v
			}
			model[parent].mutable = false
			model[next] = &modelEpoch{bits: nb, mutable: true}
			all = append(all, next)
			mutable = nil
			for _, e := range all {
				if model[e].mutable {
					mutable = append(mutable, e)
				}
			}
			next++
		case op < 5:
			e := mutable[rng.Intn(len(mutable))]
			i := int64(rng.Intn(nBits))
			s.Set(e, i)
			model[e].bits[i] = true
		case op < 8:
			e := mutable[rng.Intn(len(mutable))]
			i := int64(rng.Intn(nBits))
			s.Clear(e, i)
			delete(model[e].bits, i)
		default:
			e := all[rng.Intn(len(all))]
			i := int64(rng.Intn(nBits))
			if got, want := s.Test(e, i), model[e].bits[i]; got != want {
				t.Fatalf("step %d: epoch %d bit %d = %v, model %v", step, e, i, got, want)
			}
		}
	}

	// Final sweep: every epoch must match its model exactly, and MergeRange
	// must equal the OR of the models.
	for _, e := range all {
		for i := int64(0); i < nBits; i++ {
			if got, want := s.Test(e, i), model[e].bits[i]; got != want {
				t.Fatalf("final: epoch %d bit %d = %v, model %v", e, i, got, want)
			}
		}
	}
	merged := s.MergeRange(all, 0, nBits)
	for i := int64(0); i < nBits; i++ {
		want := false
		for _, e := range all {
			if model[e].bits[i] {
				want = true
				break
			}
		}
		if merged.Test(i) != want {
			t.Fatalf("merged bit %d = %v, model %v", i, merged.Test(i), want)
		}
	}
}

func TestMergeRangeWordAlignedMatchesBitwise(t *testing.T) {
	// Property: the word-optimized path (lo%64==0) must agree with per-bit
	// evaluation for random epoch trees.
	rng := sim.NewRNG(17)
	s := NewStore(4096, 256)
	s.CreateEpoch(0, NoParent)
	epochs := []Epoch{0}
	for e := Epoch(1); e < 6; e++ {
		parent := epochs[rng.Intn(len(epochs))]
		s.CreateEpoch(e, parent)
		epochs = append(epochs, e)
	}
	for i := 0; i < 5000; i++ {
		e := epochs[rng.Intn(len(epochs))]
		bit := int64(rng.Intn(4096))
		if rng.Intn(2) == 0 {
			s.Set(e, bit)
		} else {
			s.Clear(e, bit)
		}
	}
	s.DeleteEpoch(2)
	for _, r := range [][2]int64{{0, 4096}, {64, 1024}, {1024, 1100}, {0, 63}, {128, 128}} {
		lo, hi := r[0], r[1]
		m := s.MergeRange(epochs, lo, hi)
		for i := lo; i < hi; i++ {
			want := false
			for _, e := range epochs {
				if !s.Deleted(e) && s.Test(e, i) {
					want = true
					break
				}
			}
			if m.Test(i-lo) != want {
				t.Fatalf("range [%d,%d) bit %d: merged %v, want %v", lo, hi, i, m.Test(i-lo), want)
			}
		}
	}
}

func TestParentMutationDoesNotLeakIntoChild(t *testing.T) {
	// A child epoch's view is frozen at creation. Mutating the parent
	// afterwards (only the segment cleaner does this, when it re-points a
	// frozen snapshot's bits at a moved block) must not change what the
	// child observes through shared pages.
	s := NewStore(256, 64)
	s.CreateEpoch(1, NoParent)
	s.Set(1, 3)
	s.CreateEpoch(2, 1) // child shares epoch 1's pages

	s.Set(1, 40) // same CoW page as bit 3: owned in-place mutation
	if s.Test(2, 40) {
		t.Fatal("parent Set leaked into child via shared page")
	}
	if !s.Test(1, 40) || !s.Test(2, 3) {
		t.Fatal("push-down corrupted the intended views")
	}

	s.Clear(1, 3)
	if !s.Test(2, 3) {
		t.Fatal("parent Clear leaked into child via shared page")
	}

	// Mutating a mid-chain epoch: grandchild resolves through the child.
	s.CreateEpoch(3, 2)
	s.Set(2, 100)
	if s.Test(3, 100) {
		t.Fatal("mid-chain Set leaked into grandchild")
	}
	// A page the ancestor never owned: the first Set allocates it privately,
	// and descendants sharing "absent = all zero" must keep seeing zeros.
	s.Set(1, 200)
	if s.Test(2, 200) || s.Test(3, 200) {
		t.Fatal("Set on a previously absent page leaked into descendants")
	}

	// Children created after the mutation do inherit it.
	s.CreateEpoch(4, 1)
	if !s.Test(4, 40) || !s.Test(4, 200) || s.Test(4, 3) {
		t.Fatal("post-mutation child does not see the parent's current view")
	}
}

// TestExportImportRoundTrip: exporting every epoch's owned pages and
// re-importing them into a fresh store (epochs created in topological
// order) must reproduce every epoch's full view bit-for-bit — the
// checkpoint serialize/restore contract.
func TestExportImportRoundTrip(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 5)
	s.Set(1, 200) // second CoW page
	s.CreateEpoch(2, 1)
	s.Set(2, 6)
	s.Clear(2, 5)
	s.CreateEpoch(3, 2)
	s.Set(3, 700)
	s.DeleteEpoch(2)

	r := NewStore(1024, 128)
	parents := map[Epoch]Epoch{1: NoParent, 2: 1, 3: 2}
	for _, e := range []Epoch{1, 2, 3} {
		if err := r.CreateEpoch(e, parents[e]); err != nil {
			t.Fatal(err)
		}
		for _, pg := range s.ExportEpoch(e) {
			if err := r.ImportPage(e, pg.PageIdx, pg.Words); err != nil {
				t.Fatal(err)
			}
		}
		if s.Deleted(e) {
			if err := r.DeleteEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range []Epoch{1, 2, 3} {
		if r.OwnedPages(e) != s.OwnedPages(e) {
			t.Fatalf("epoch %d owned pages = %d, want %d", e, r.OwnedPages(e), s.OwnedPages(e))
		}
		if r.Deleted(e) != s.Deleted(e) {
			t.Fatalf("epoch %d deleted flag mismatch", e)
		}
		for i := int64(0); i < 1024; i++ {
			if r.Test(e, i) != s.Test(e, i) {
				t.Fatalf("epoch %d bit %d: restored %v, original %v", e, i, r.Test(e, i), s.Test(e, i))
			}
		}
	}
}

func TestExportOrderedAndDetached(t *testing.T) {
	s := newTestStore(t)
	s.Set(1, 900)
	s.Set(1, 10)
	pages := s.ExportEpoch(1)
	if len(pages) != 2 || pages[0].PageIdx >= pages[1].PageIdx {
		t.Fatalf("export not in ascending page order: %+v", pages)
	}
	// Mutating the export must not touch the store.
	pages[0].Words[0] = ^uint64(0)
	if s.Test(1, 0) {
		t.Fatal("ExportEpoch aliased store memory")
	}
}

func TestImportPageValidation(t *testing.T) {
	s := newTestStore(t)
	if err := s.ImportPage(1, 0, make([]uint64, 1)); err == nil {
		t.Fatal("short page accepted")
	}
	words := make([]uint64, 2) // 128 bits / 64
	if err := s.ImportPage(1, 99, words); err == nil {
		t.Fatal("out-of-range page index accepted")
	}
	if err := s.ImportPage(1, 0, words); err != nil {
		t.Fatal(err)
	}
	if err := s.ImportPage(1, 0, words); err == nil {
		t.Fatal("duplicate import accepted")
	}
}

func TestPageIndicesSparse(t *testing.T) {
	s := newTestStore(t) // 8 pages of 128 bits
	if got := s.PageIndices(1); len(got) != 0 {
		t.Fatalf("fresh epoch observes pages %v, want none", got)
	}
	s.Set(1, 5)   // page 0
	s.Set(1, 700) // page 5
	if err := s.CreateEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	s.Set(2, 300) // page 2, owned by the child only
	got := s.PageIndices(2)
	want := []int64{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("PageIndices(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PageIndices(2) = %v, want %v", got, want)
		}
	}
	// The parent does not see the child's private page.
	got = s.PageIndices(1)
	// Set(1, ...) after the fork may have pushed pages down, but epoch 1
	// itself observes exactly the pages it touched.
	want = []int64{0, 5}
	if len(got) != len(want) || got[0] != 0 || got[1] != 5 {
		t.Fatalf("PageIndices(1) = %v, want %v", got, want)
	}
	// A cleared page still counts as observable (its bits read zero); the
	// contract is a superset bound, never an undercount.
	s.Clear(2, 300)
	if got := s.PageIndices(2); len(got) != 3 {
		t.Fatalf("PageIndices(2) after clear = %v, want 3 pages", got)
	}
}
