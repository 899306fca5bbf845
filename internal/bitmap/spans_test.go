package bitmap

import (
	"fmt"
	"testing"
)

// TestCountSpansMatchesCountValid checks the per-span counts span for span
// against CountValid, for epochs that own their pages, inherit them, are
// deleted, took a reaped epoch's pages as its heir, or imported a page with
// bits past the store's end; on a store whose length is not a multiple of 64
// and with a CoW page no epoch's chain holds; with spans that are and are not
// multiples of 64, and a partial last span.
func TestCountSpansMatchesCountValid(t *testing.T) {
	const n, bpp = 1000, 128 // 8 CoW pages, the last one 104 bits long
	s := NewStore(n, bpp)
	mustCreate := func(e, parent Epoch) {
		t.Helper()
		if err := s.CreateEpoch(e, parent); err != nil {
			t.Fatal(err)
		}
	}
	mustDelete := func(e Epoch) {
		t.Helper()
		if err := s.DeleteEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	// root: every third bit of pages 0-3; page 4 stays absent from every
	// chain. snap inherits all of it; child rewrites pages 1 and 2; branch
	// forks root and fills the store's tail; gone forks child, owns page 5
	// and is deleted; mid forks branch, clears the head of page 7 and is
	// deleted with one child, heir, which a reap splices it into.
	mustCreate(1, NoParent) // root
	for i := int64(0); i < 4*bpp; i += 3 {
		s.Set(1, i)
	}
	mustCreate(2, 1) // snap
	mustCreate(3, 2) // child
	s.SetRange(3, bpp+5, 2*bpp+90)
	s.Clear(3, bpp+60)
	mustCreate(4, 1) // branch
	s.SetRange(4, 6*bpp+1, n)
	s.ClearRange(4, 3*bpp, 3*bpp+64)
	mustCreate(5, 3) // gone
	s.SetRange(5, 5*bpp, 6*bpp)
	mustDelete(5)
	mustCreate(6, 4) // mid
	s.ClearRange(6, 7*bpp, 7*bpp+33)
	mustCreate(7, 6) // heir
	s.SetRange(7, 10, 20)
	mustDelete(6)
	reaped := s.Reap(func(e Epoch) bool { return e == 5 })
	if len(reaped) != 1 || reaped[0] != (Reaped{Epoch: 6, Heir: 7}) {
		t.Fatalf("Reap = %v, want only mid spliced into heir", reaped)
	}
	// imported: a last page read back from a checkpoint image with every
	// bit set, the 24 past the store's end included.
	mustCreate(8, 1)
	ones := make([]uint64, bpp/64)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	if err := s.ImportPage(8, 7, ones); err != nil {
		t.Fatal(err)
	}

	epochs := []Epoch{1, 2, 3, 4, 5, 7, 8}
	spans := []int64{64, 128, 96, 100, 7, 1, 999, n, 4096}
	for _, e := range epochs {
		for _, span := range spans {
			name := fmt.Sprintf("epoch %d, span %d", e, span)
			got := s.CountSpans(e, span)
			if want := int((n + span - 1) / span); len(got) != want {
				t.Fatalf("%s: %d counts, want %d", name, len(got), want)
			}
			for i, c := range got {
				lo := int64(i) * span
				if want := s.CountValid(e, lo, lo+span); c != want {
					t.Fatalf("%s: span %d [%d,%d) counts %d, CountValid says %d", name, i, lo, lo+span, c, want)
				}
			}
		}
	}
	// The table must reach what it claims: the absent page counts nothing,
	// the heir holds the reaped epoch's page and the partial last span of
	// span 96 holds bits.
	if c := s.CountSpans(4, bpp); c[4] != 0 || c[7] == 0 {
		t.Fatalf("branch per page %v: want page 4 empty and page 7 held", c)
	}
	if c := s.CountSpans(7, bpp); c[7] != n-7*bpp-33 {
		t.Fatalf("heir holds %d bits of page 7, want mid's %d", c[7], n-7*bpp-33)
	}
	if c := s.CountSpans(4, 96); c[len(c)-1] != int(n%96) {
		t.Fatalf("branch's partial last span holds %d bits, want %d", c[len(c)-1], n%96)
	}
}
