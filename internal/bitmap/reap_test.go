package bitmap

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestReapShapes: the three rules on a hand-built graph, 1 ← 2 ← 3 ← {4, 5}
// with 6 under 5, and 2, 3, 5 and 6 deleted. 6 is a leaf: dropped. 5 is left
// with no child: dropped. 3 is left with one child, 4: spliced into it, and
// so is 2 after it.
func TestReapShapes(t *testing.T) {
	s := NewStore(512, 64)
	// Each epoch writes before it forks, as a view does before its snapshot.
	for _, c := range []struct {
		e, parent Epoch
		bit       int64
	}{
		{1, NoParent, 0}, // page 0 in the root
		{2, 1, 70},       // page 1 owned by 2
		{3, 2, 130},      // page 2 owned by 3
		{4, 3, 131},      // 4 copies page 2 on write
		{5, 3, -1},
		{6, 5, 200}, // page 3 owned by 6 only
	} {
		if err := s.CreateEpoch(c.e, c.parent); err != nil {
			t.Fatal(err)
		}
		if c.bit >= 0 {
			s.Set(c.e, c.bit)
		}
	}
	for _, e := range []Epoch{2, 3, 5, 6} {
		if err := s.DeleteEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	before := s.MemoryBytes()
	cows := s.CoWCopies()
	gen := s.Gen()
	none := func(Epoch) bool { return false }
	if e, ok := s.Reapable(none); !ok || e != 2 {
		t.Fatalf("Reapable = %d, %v; want 2, the lowest deleted epoch with one child", e, ok)
	}
	if _, ok := s.Reapable(func(e Epoch) bool { return e != 1 && e != 4 }); ok {
		t.Fatal("Reapable found an epoch with every deleted one pinned")
	}

	got := s.Reap(none)
	want := []Reaped{{6, NoParent}, {5, NoParent}, {3, 4}, {2, 4}}
	if !slices.Equal(got, want) {
		t.Fatalf("Reap = %v, want %v", got, want)
	}
	if eps := s.Epochs(); !slices.Equal(eps, []Epoch{1, 4}) {
		t.Fatalf("epochs after reaping %v, want [1 4]", eps)
	}
	if p, ok := s.Parent(4); !ok || p != 1 {
		t.Fatalf("epoch 4 inherits from %d (%v), want the root", p, ok)
	}
	for _, bit := range []int64{0, 70, 130, 131} {
		if !s.Test(4, bit) {
			t.Fatalf("epoch 4 lost bit %d", bit)
		}
	}
	if s.Test(4, 200) {
		t.Fatal("epoch 4 sees the dropped leaf's bit")
	}
	// 4 adopted page 1 from 2; page 2 it already owned, so 3's copy went.
	if n := s.OwnedPages(4); n != 2 {
		t.Fatalf("epoch 4 owns %d pages, want its own and the adopted one", n)
	}
	if freed := before - s.MemoryBytes(); freed != 2*64/8 {
		t.Fatalf("reaping freed %d bytes, want two pages (6's and 3's page 2)", freed)
	}
	if s.CoWCopies() != cows || s.Gen() != gen {
		t.Fatal("reaping copied a page or moved the generation")
	}
	for e, want := range map[Epoch]Epoch{2: 4, 3: 4, 4: 4} {
		if h, ok := s.Resolve(e); !ok || h != want {
			t.Fatalf("Resolve(%d) = %d, %v; want %d", e, h, ok, want)
		}
	}
	for _, e := range []Epoch{5, 6, 99} {
		if _, ok := s.Resolve(e); ok {
			t.Fatalf("Resolve(%d) found an heir for a dropped or unknown epoch", e)
		}
	}
	if e, ok := s.Reapable(none); ok {
		t.Fatalf("Reapable = %d after reaping", e)
	}
	if again := s.Reap(none); again != nil {
		t.Fatalf("a second pass reaped %v", again)
	}
}

// TestReapIsConfluent: a store reaped after every operation, with pins that
// come and go, and a twin reaped once at the end with the final pins hold
// the same epochs, parents, deletion marks, owned page indices, bits and
// alias table. This is what lets the FTL reap history as it dies and still
// agree with a recovery that rebuilds the whole history and reaps it in one
// pass. (CoW counts may differ: a write into an epoch that adopted a
// page finds it owned and copies nothing.)
func TestReapIsConfluent(t *testing.T) {
	const nBits, bpp = 1024, 64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eager, lazy := NewStore(nBits, bpp), NewStore(nBits, bpp)
		both := func(fn func(s *Store) error) {
			if err := fn(eager); err != nil {
				t.Fatal(err)
			}
			if err := fn(lazy); err != nil {
				t.Fatal(err)
			}
		}
		both(func(s *Store) error { return s.CreateEpoch(1, NoParent) })
		pins := map[Epoch]bool{}
		pinned := func(e Epoch) bool { return pins[e] }
		next, reaped := Epoch(2), 0
		for step := 0; step < 3000; step++ {
			live := eager.LiveEpochs()
			switch op := rng.Intn(12); {
			case op == 0 && len(live) < 10:
				// New epochs fork live ones, as snapshot create and
				// activation do: nothing ever attaches to a deleted epoch.
				p := live[rng.Intn(len(live))]
				both(func(s *Store) error { return s.CreateEpoch(next, p) })
				next++
			case op == 1 && len(live) > 1:
				e := live[rng.Intn(len(live))]
				both(func(s *Store) error { return s.DeleteEpoch(e) })
			case op == 2:
				eps := eager.Epochs()
				e := eps[rng.Intn(len(eps))]
				pins[e] = !pins[e]
			default:
				e, i := live[rng.Intn(len(live))], int64(rng.Intn(nBits))
				clear := rng.Intn(3) == 0
				both(func(s *Store) error {
					if clear {
						s.Clear(e, i)
					} else {
						s.Set(e, i)
					}
					return nil
				})
			}
			reaped += len(eager.Reap(pinned))
			if e, ok := eager.Reapable(pinned); ok {
				t.Fatalf("seed %d step %d: epoch %d still reapable after a pass", seed, step, e)
			}
		}
		reaped += len(eager.Reap(pinned))
		lazy.Reap(pinned)

		if reaped < 20 || len(eager.Aliases()) == 0 {
			t.Fatalf("seed %d: degenerate run: %d epochs reaped, %d aliases", seed, reaped, len(eager.Aliases()))
		}
		if a, b := eager.Epochs(), lazy.Epochs(); !slices.Equal(a, b) {
			t.Fatalf("seed %d: epochs %v reaped eagerly, %v at once", seed, a, b)
		}
		if a, b := eager.Aliases(), lazy.Aliases(); !slices.Equal(a, b) {
			t.Fatalf("seed %d: alias table %v reaped eagerly, %v at once", seed, a, b)
		}
		if eager.MemoryBytes() != lazy.MemoryBytes() {
			t.Fatalf("seed %d: %d bytes of pages reaped eagerly, %d at once", seed, eager.MemoryBytes(), lazy.MemoryBytes())
		}
		for _, e := range eager.Epochs() {
			pa, oka := eager.Parent(e)
			pb, okb := lazy.Parent(e)
			if pa != pb || oka != okb || eager.Deleted(e) != lazy.Deleted(e) {
				t.Fatalf("seed %d: epoch %d parent %d/deleted %v eagerly, %d/%v at once",
					seed, e, pa, eager.Deleted(e), pb, lazy.Deleted(e))
			}
			if a, b := eager.OwnedPages(e), lazy.OwnedPages(e); a != b {
				t.Fatalf("seed %d: epoch %d owns %d pages eagerly, %d at once", seed, e, a, b)
			}
			for i := int64(0); i < nBits; i++ {
				if eager.Test(e, i) != lazy.Test(e, i) {
					t.Fatalf("seed %d: epoch %d bit %d diverged", seed, e, i)
				}
			}
		}
		checkLive(t, eager, "after reaping")
	}
}

// eagerAliases is the alias table as Reap used to keep it: every pass
// rewrote every alias naming an epoch it reaped, so the table always named
// registered heirs directly. It is the reference for the lazy table.
type eagerAliases map[Epoch]Epoch

func (a eagerAliases) apply(out []Reaped) {
	heirOf := make(map[Epoch]Epoch, len(out))
	for _, r := range out {
		heirOf[r.Epoch] = r.Heir
	}
	for e, h := range a {
		if next, reaped := heirOf[h]; reaped {
			if next == NoParent {
				delete(a, e)
			} else {
				a[e] = next
			}
		}
	}
	for _, r := range out {
		if r.Heir != NoParent {
			a[r.Epoch] = r.Heir
		}
	}
}

func (a eagerAliases) list() []Reaped {
	out := make([]Reaped, 0, len(a))
	for e, h := range a {
		out = append(out, Reaped{Epoch: e, Heir: h})
	}
	slices.SortFunc(out, func(x, y Reaped) int { return cmp.Compare(x.Epoch, y.Epoch) })
	return out
}

// checkAliases compares s's alias table and Resolve of every epoch below
// next (every epoch ever created, and 0, never created) with the reference.
func checkAliases(t *testing.T, s *Store, ref eagerAliases, next Epoch, when string) {
	t.Helper()
	if got, want := s.Aliases(), ref.list(); !slices.Equal(got, want) {
		t.Fatalf("%s: Aliases() = %v, want %v", when, got, want)
	}
	for e := Epoch(0); e < next; e++ {
		want, wantOK := ref[e]
		if !wantOK {
			want, wantOK = e, s.Exists(e)
		}
		if got, ok := s.Resolve(e); ok != wantOK || (ok && got != want) {
			t.Fatalf("%s: Resolve(%d) = %d, %v; want %d, %v", when, e, got, ok, want, wantOK)
		}
	}
}

// TestLazyAliasesMatchEagerSweep: random create, delete, pin and reap
// sequences on two stores, one whose alias table is read after every reap
// (chains compressed as they form) and one read only now and then (chains
// left to grow), both against the eager sweep as reference.
func TestLazyAliasesMatchEagerSweep(t *testing.T) {
	const nBits, bpp = 1024, 64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		every, sometimes := NewStore(nBits, bpp), NewStore(nBits, bpp)
		ref := eagerAliases{}
		both := func(fn func(s *Store) error) {
			if err := fn(every); err != nil {
				t.Fatal(err)
			}
			if err := fn(sometimes); err != nil {
				t.Fatal(err)
			}
		}
		both(func(s *Store) error { return s.CreateEpoch(1, NoParent) })
		pins := map[Epoch]bool{}
		pinned := func(e Epoch) bool { return pins[e] }
		next, spliced := Epoch(2), 0
		for step := 0; step < 2000; step++ {
			live := every.LiveEpochs()
			switch op := rng.Intn(10); {
			case op < 3 && len(live) < 8:
				p := live[rng.Intn(len(live))]
				both(func(s *Store) error { return s.CreateEpoch(next, p) })
				next++
			case op < 6 && len(live) > 1:
				e := live[rng.Intn(len(live))]
				both(func(s *Store) error { return s.DeleteEpoch(e) })
			case op == 6:
				eps := every.Epochs()
				e := eps[rng.Intn(len(eps))]
				pins[e] = !pins[e]
			default:
				e, i := live[rng.Intn(len(live))], int64(rng.Intn(nBits))
				both(func(s *Store) error { s.Set(e, i); return nil })
			}
			out := every.Reap(pinned)
			if other := sometimes.Reap(pinned); !slices.Equal(out, other) {
				t.Fatalf("seed %d step %d: twin stores reaped %v and %v", seed, step, out, other)
			}
			ref.apply(out)
			for _, r := range out {
				if r.Heir != NoParent {
					spliced++
				}
			}
			if len(out) > 0 {
				checkAliases(t, every, ref, next, "after a reap")
			}
			if rng.Intn(50) == 0 {
				checkAliases(t, sometimes, ref, next, "now and then")
			}
		}
		checkAliases(t, sometimes, ref, next, "at the end")
		if spliced < 50 || len(ref) == 0 {
			t.Fatalf("seed %d: degenerate run: %d epochs spliced, %d aliases left", seed, spliced, len(ref))
		}
	}
}

// TestDeepAliasChain: snap-churn's shape — the active epoch freezes into a
// snapshot, the oldest of the three held is deleted and reaped — 10 000
// times, the alias table never read in between. Every deleted epoch is
// spliced into the next, a chain 10 000 deep; it ends as one alias per
// spliced epoch, each naming the one that survives.
func TestDeepAliasChain(t *testing.T) {
	const cycles = 10_000
	s := NewStore(1024, 64)
	if err := s.CreateEpoch(1, NoParent); err != nil {
		t.Fatal(err)
	}
	active, held := Epoch(1), []Epoch(nil)
	for i := 0; i < cycles+3; i++ {
		s.Set(active, int64(i%1024))
		held = append(held, active)
		active++
		if err := s.CreateEpoch(active, active-1); err != nil {
			t.Fatal(err)
		}
		if len(held) > 3 {
			if err := s.DeleteEpoch(held[0]); err != nil {
				t.Fatal(err)
			}
			held = held[1:]
			if out := s.Reap(func(Epoch) bool { return false }); len(out) != 1 {
				t.Fatalf("cycle %d reaped %v, want the deleted epoch", i, out)
			}
		}
	}
	if eps := s.Epochs(); len(eps) != len(held)+1 {
		t.Fatalf("%d epochs left, want the %d held and the active one", len(eps), len(held))
	}
	aliases := s.Aliases()
	if len(aliases) != cycles {
		t.Fatalf("%d aliases, want one per spliced epoch (%d)", len(aliases), cycles)
	}
	for i, a := range aliases {
		if a.Epoch != Epoch(i+1) || a.Heir != held[0] {
			t.Fatalf("alias %d is %d -> %d, want %d -> %d", i, a.Epoch, a.Heir, i+1, held[0])
		}
	}
}
