package bitmap

import (
	"math/rand"
	"slices"
	"testing"
)

// wantLive is the definition LiveEpochs must keep meeting: the registered
// epochs that are not deleted, ascending.
func wantLive(s *Store) []Epoch {
	var out []Epoch
	for _, e := range s.Epochs() {
		if !s.Deleted(e) {
			out = append(out, e)
		}
	}
	slices.Sort(out)
	return out
}

func checkLive(t *testing.T, s *Store, when string) {
	t.Helper()
	if got, want := s.LiveEpochs(), wantLive(s); !slices.Equal(got, want) {
		t.Fatalf("%s: LiveEpochs = %v, want %v", when, got, want)
	}
}

// TestLiveEpochsTrackCreateDelete drives seeded random create/delete
// sequences — epoch numbers out of order, deletes of deleted epochs, failed
// creates — and then rebuilds the store the way checkpoint recovery does
// (every epoch created parents first, the dead ones deleted right after their
// pages are imported).
func TestLiveEpochsTrackCreateDelete(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(1024, 64)
		numbers := rng.Perm(300) // epoch numbers in creation order: not ascending
		var all []Epoch
		parentOf := map[Epoch]Epoch{}
		for step := 0; step < 1200; step++ {
			switch {
			case len(all) == 0 || (rng.Intn(3) == 0 && len(all) < len(numbers)):
				e, parent := Epoch(numbers[len(all)]), NoParent
				if len(all) > 0 {
					parent = all[rng.Intn(len(all))] // a deleted parent is legal
				}
				if err := s.CreateEpoch(e, parent); err != nil {
					t.Fatal(err)
				}
				all = append(all, e)
				parentOf[e] = parent
			case rng.Intn(8) == 0:
				if err := s.CreateEpoch(all[rng.Intn(len(all))], NoParent); err == nil {
					t.Fatal("duplicate create accepted")
				}
			case rng.Intn(8) == 0:
				if err := s.DeleteEpoch(Epoch(1000 + rng.Intn(10))); err == nil {
					t.Fatal("delete of an unknown epoch accepted")
				}
			default:
				// Deleting twice is legal (recovery replays delete notes).
				if err := s.DeleteEpoch(all[rng.Intn(len(all))]); err != nil {
					t.Fatal(err)
				}
			}
			checkLive(t, s, "random sequence")
		}
		if n := len(s.LiveEpochs()); n == 0 || n == len(all) {
			t.Fatalf("seed %d: degenerate run, %d of %d epochs live", seed, n, len(all))
		}

		// Checkpoint recovery rebuilds a store parents first: each epoch is
		// created, its pages imported, and a dead one deleted before the
		// next is created. (Parents first is creation order here; on the
		// FTL's monotonic epoch counter it is ascending order.)
		r := NewStore(1024, 64)
		for _, e := range all {
			if err := r.CreateEpoch(e, parentOf[e]); err != nil {
				t.Fatal(err)
			}
			if err := r.ImportPage(e, int64(e)%16, make([]uint64, 1)); err != nil {
				t.Fatal(err)
			}
			if s.Deleted(e) {
				if err := r.DeleteEpoch(e); err != nil {
					t.Fatal(err)
				}
			}
			checkLive(t, r, "rebuild")
		}
		if !slices.Equal(r.LiveEpochs(), s.LiveEpochs()) {
			t.Fatalf("seed %d: rebuilt store live %v, original %v", seed, r.LiveEpochs(), s.LiveEpochs())
		}
	}
}

// TestReadRangeIntoMatchesTest: the range read is Test over the range, for
// ranges that start on and off a word boundary, end mid-word, cross CoW
// pages, and cover pages the epoch owns, inherits, or has never seen — and
// for a deleted epoch, which the merges skip but a snapshot's own bits do not.
func TestReadRangeIntoMatchesTest(t *testing.T) {
	const nBits, bpp = 1000, 128 // the last page is partial
	rng := rand.New(rand.NewSource(3))
	s := NewStore(nBits, bpp)
	if err := s.CreateEpoch(1, NoParent); err != nil {
		t.Fatal(err)
	}
	// Pages 0-2 and 6 populated in the root; 3-5 and 7 absent everywhere.
	for i := 0; i < 300; i++ {
		s.Set(1, int64(rng.Intn(3*bpp)))
	}
	s.SetRange(1, 6*bpp+5, 6*bpp+90)
	if err := s.CreateEpoch(2, 1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 owns page 1 (CoW) and page 4 (fresh); inherits 0, 2 and 6.
	for i := 0; i < 40; i++ {
		s.Clear(2, int64(bpp+rng.Intn(bpp)))
		s.Set(2, int64(4*bpp+rng.Intn(bpp)))
	}
	if err := s.CreateEpoch(3, 2); err != nil {
		t.Fatal(err)
	}
	s.Set(3, 999)
	if err := s.DeleteEpoch(2); err != nil {
		t.Fatal(err)
	}

	check := func(e Epoch, lo, hi int64) {
		t.Helper()
		out := New(hi - lo)
		out.SetRange(0, hi-lo) // stale contents must be overwritten, not merged
		s.ReadRangeInto(e, lo, hi, out)
		for i := lo; i < hi; i++ {
			if got, want := out.Test(i-lo), s.Test(e, i); got != want {
				t.Fatalf("epoch %d range [%d,%d): bit %d = %v, Test says %v", e, lo, hi, i, got, want)
			}
		}
		// NextSet must walk exactly the set bits, ascending.
		var walked []int64
		for i, ok := out.NextSet(0); ok; i, ok = out.NextSet(i + 1) {
			walked = append(walked, i)
		}
		if len(walked) != out.Count() || !slices.IsSorted(walked) {
			t.Fatalf("epoch %d range [%d,%d): NextSet walked %d bits, Count %d", e, lo, hi, len(walked), out.Count())
		}
		for _, i := range walked {
			if !out.Test(i) {
				t.Fatalf("NextSet returned clear bit %d", i)
			}
		}
	}
	for _, e := range []Epoch{1, 2, 3} {
		// 16-page segments (the unit tests' geometry): most start off a word.
		for lo := int64(0); lo+16 <= nBits; lo += 16 {
			check(e, lo, lo+16)
		}
		check(e, 0, nBits)       // everything, partial last page and word
		check(e, 64, 64+100)     // aligned start, partial trailing word
		check(e, 3*bpp, 6*bpp)   // absent pages around an owned one
		check(e, bpp-1, 2*bpp+1) // unaligned, across two page boundaries
		check(e, 960, nBits)     // aligned start inside the partial page
		check(e, 999, nBits)     // one bit
		for i := 0; i < 200; i++ {
			lo := int64(rng.Intn(nBits))
			check(e, lo, lo+1+int64(rng.Intn(int(nBits-lo))))
		}
	}
	if s.CountValid(2, 0, nBits) == 0 {
		t.Fatal("degenerate test: the deleted epoch holds no bits")
	}
	merged := s.MergeRange([]Epoch{2}, 0, nBits)
	if merged.Count() != 0 {
		t.Fatal("a merge must still skip the deleted epoch")
	}
}

// TestRepointMatchesPerEpochFlips: Repoint is the cleaner's old loop — find
// the live holders of a bit, then Clear and Set in each, ascending — and must
// leave the same bits in every epoch (deleted ones included), copy the same
// number of CoW pages, and report the same holders.
func TestRepointMatchesPerEpochFlips(t *testing.T) {
	const nBits, bpp = 2048, 128
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewStore(nBits, bpp), NewStore(nBits, bpp)
		both := func(fn func(s *Store)) { fn(a); fn(b) }
		both(func(s *Store) {
			if err := s.CreateEpoch(0, NoParent); err != nil {
				t.Fatal(err)
			}
		})
		next, moves := Epoch(1), 0
		var scratch []Epoch
		var everSet []int64
		for step := 0; step < 3000; step++ {
			live := a.LiveEpochs()
			switch op := rng.Intn(20); {
			case op == 0 && len(a.Epochs()) < 40:
				epochs := a.Epochs()
				parent := epochs[rng.Intn(len(epochs))]
				both(func(s *Store) {
					if err := s.CreateEpoch(next, parent); err != nil {
						t.Fatal(err)
					}
				})
				next++
			case op == 1 && len(live) > 1:
				e := live[rng.Intn(len(live))]
				both(func(s *Store) {
					if err := s.DeleteEpoch(e); err != nil {
						t.Fatal(err)
					}
				})
			case op < 12:
				e, i := live[rng.Intn(len(live))], int64(rng.Intn(nBits))
				both(func(s *Store) { s.Set(e, i) })
				everSet = append(everSet, i)
			default:
				old, dst := int64(rng.Intn(nBits)), int64(rng.Intn(nBits))
				if len(everSet) > 0 && rng.Intn(4) != 0 {
					old = everSet[rng.Intn(len(everSet))] // likely held, often by a whole lineage
				}
				everSet = append(everSet, dst)
				var want []Epoch
				for _, e := range b.LiveEpochs() {
					if b.Test(e, old) {
						want = append(want, e)
					}
				}
				for _, e := range want {
					b.Clear(e, old)
					b.Set(e, dst)
				}
				scratch = a.Repoint(old, dst, scratch)
				if !slices.Equal(scratch, want) {
					t.Fatalf("seed %d step %d: Repoint(%d,%d) holders %v, want %v", seed, step, old, dst, scratch, want)
				}
				if len(want) > 1 {
					moves++
				}
			}
			if a.CoWCopies() != b.CoWCopies() {
				t.Fatalf("seed %d step %d: CoW copies %d, per-epoch flips %d", seed, step, a.CoWCopies(), b.CoWCopies())
			}
		}
		for _, e := range a.Epochs() {
			for i := int64(0); i < nBits; i++ {
				if a.Test(e, i) != b.Test(e, i) {
					t.Fatalf("seed %d: epoch %d bit %d diverged", seed, e, i)
				}
			}
		}
		if moves < 20 || a.CoWCopies() == 0 {
			t.Fatalf("seed %d: degenerate run: %d multi-holder moves, %d CoW copies", seed, moves, a.CoWCopies())
		}
	}
}
