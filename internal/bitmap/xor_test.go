package bitmap

import (
	"fmt"
	"testing"
)

// TestXorRangeIntoMatchesTest checks the delta primitive bit for bit against
// a Test loop over both epochs, on ranges that start on a word boundary and
// ranges that do not, across CoW pages both epochs inherit, pages either one
// owns, and a deleted epoch.
func TestXorRangeIntoMatchesTest(t *testing.T) {
	const n, bpp = 1024, 128 // 8 CoW pages of two words each
	s := NewStore(n, bpp)
	mustCreate := func(e, parent Epoch) {
		t.Helper()
		if err := s.CreateEpoch(e, parent); err != nil {
			t.Fatal(err)
		}
	}
	// root: every third bit. snap inherits all of it, then child rewrites
	// pages 1 and 2 only; branch forks root and rewrites pages 2 and 5; gone
	// forks child, owns page 6 and is deleted.
	mustCreate(1, NoParent)
	for i := int64(0); i < n; i += 3 {
		s.Set(1, i)
	}
	mustCreate(2, 1) // snap: shares every page with root
	mustCreate(3, 2) // child
	for i := int64(bpp); i < 3*bpp; i += 5 {
		s.Set(3, i)
	}
	s.Clear(3, bpp+3)
	mustCreate(4, 1) // branch
	s.SetRange(4, 2*bpp+7, 2*bpp+100)
	s.ClearRange(4, 5*bpp, 5*bpp+64)
	mustCreate(5, 3) // gone
	s.SetRange(5, 6*bpp, 7*bpp)
	if err := s.DeleteEpoch(5); err != nil {
		t.Fatal(err)
	}

	ranges := [][2]int64{
		{0, n},                   // everything
		{bpp, 2 * bpp},           // one page, word-aligned
		{64, 64 + 256},           // word-aligned, across pages
		{16, 32},                 // a 16-page segment off a word boundary
		{bpp + 48, bpp + 64},     // the segment ending a word
		{2*bpp - 16, 2*bpp + 16}, // off a word boundary, across a page edge
		{6*bpp + 16, 7*bpp + 40}, // into the deleted epoch's own page
		{3 * bpp, 4 * bpp},       // a page every epoch inherits from root
		{1000, n},                // a partial trailing word
	}
	pairs := [][2]Epoch{{1, 2}, {2, 3}, {3, 2}, {3, 4}, {2, 4}, {4, 5}, {5, 3}, {1, 1}}
	for _, p := range pairs {
		for _, r := range ranges {
			name := fmt.Sprintf("epochs %d^%d over [%d,%d)", p[0], p[1], r[0], r[1])
			out := New(r[1] - r[0])
			out.SetRange(0, out.Len()) // stale bits must not survive
			got := s.XorRangeInto(p[0], p[1], r[0], r[1], out)
			want := false
			for i := r[0]; i < r[1]; i++ {
				x := s.Test(p[0], i) != s.Test(p[1], i)
				if out.Test(i-r[0]) != x {
					t.Fatalf("%s: bit %d is %v, Test says %v", name, i, out.Test(i-r[0]), x)
				}
				want = want || x
			}
			if got != want {
				t.Fatalf("%s: reports %v, a bit is set: %v", name, got, want)
			}
		}
	}
	// The table must reach both answers and both kinds of page.
	out := New(bpp)
	if s.XorRangeInto(1, 2, 0, bpp, out) {
		t.Fatal("a snapshot and the epoch it inherits every page from differ")
	}
	if !s.XorRangeInto(3, 5, 6*bpp, 7*bpp, out) {
		t.Fatal("the deleted epoch's own page shows no difference")
	}
}
