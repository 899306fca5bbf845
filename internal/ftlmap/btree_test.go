package ftlmap

import (
	"sort"
	"testing"

	"iosnap/internal/sim"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Lookup(5); ok {
		t.Fatal("lookup in empty tree succeeded")
	}
	if n := tr.DeleteRange(5, 6, nil); n != 0 {
		t.Fatalf("delete in empty tree removed %d", n)
	}
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		if _, existed := tr.Insert(i*3, i); existed {
			t.Fatalf("fresh insert of %d reported existing", i*3)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := tr.Lookup(i * 3)
		if !ok || v != i {
			t.Fatalf("Lookup(%d) = %d,%v", i*3, v, ok)
		}
		if _, ok := tr.Lookup(i*3 + 1); ok {
			t.Fatalf("Lookup(%d) should miss", i*3+1)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestInsertOverwrite(t *testing.T) {
	tr := New()
	tr.Insert(7, 100)
	prev, existed := tr.Insert(7, 200)
	if !existed || prev != 100 {
		t.Fatalf("overwrite: prev=%d existed=%v", prev, existed)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", tr.Len())
	}
	v, _ := tr.Lookup(7)
	if v != 200 {
		t.Fatalf("Lookup after overwrite = %d", v)
	}
}

func TestRange(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i*10, i)
	}
	var got []uint64
	tr.Range(95, 305, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300}
	if len(got) != len(want) {
		t.Fatalf("Range returned %d keys, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i, i)
	}
	count := 0
	tr.Range(0, 100, func(k, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestAll(t *testing.T) {
	tr := New()
	keys := []uint64{5, 1, 9, 3, 7}
	for _, k := range keys {
		tr.Insert(k, k*2)
	}
	var got []uint64
	tr.All(func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("All not sorted: %v", got)
	}
	if len(got) != len(keys) {
		t.Fatalf("All visited %d", len(got))
	}
}

func TestBulkLoad(t *testing.T) {
	var entries []Entry
	for i := uint64(0); i < 12345; i++ {
		entries = append(entries, Entry{Key: i * 2, Val: i})
	}
	tr := BulkLoad(entries)
	if tr.Len() != len(entries) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for _, e := range entries {
		v, ok := tr.Lookup(e.Key)
		if !ok || v != e.Val {
			t.Fatalf("Lookup(%d) = %d,%v", e.Key, v, ok)
		}
	}
	// Bulk-loaded tree must still accept mutations.
	tr.Insert(1, 999)
	if v, ok := tr.Lookup(1); !ok || v != 999 {
		t.Fatal("insert into bulk-loaded tree failed")
	}
	if n := tr.DeleteRange(0, 1, nil); n != 1 {
		t.Fatalf("delete from bulk-loaded tree removed %d", n)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants after mutation: %v", err)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil)
	if tr.Len() != 0 {
		t.Fatal("empty bulk load not empty")
	}
	tr.Insert(1, 2)
	if v, _ := tr.Lookup(1); v != 2 {
		t.Fatal("insert after empty bulk load failed")
	}
}

func TestBulkLoadUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted BulkLoad did not panic")
		}
	}()
	BulkLoad([]Entry{{5, 0}, {3, 0}})
}

func TestBulkLoadCompactness(t *testing.T) {
	// The Table 3 effect: a bulk-loaded tree must be measurably smaller than
	// the same contents inserted in random order.
	rng := sim.NewRNG(31)
	const n = 50000
	perm := rng.Perm(n)
	grown := New()
	for _, p := range perm {
		grown.Insert(uint64(p), uint64(p))
	}
	var entries []Entry
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{Key: uint64(i), Val: uint64(i)})
	}
	packed := BulkLoad(entries)
	if packed.MemoryBytes() >= grown.MemoryBytes() {
		t.Fatalf("bulk-loaded tree (%d B) not smaller than grown tree (%d B)",
			packed.MemoryBytes(), grown.MemoryBytes())
	}
	gl, _ := grown.Nodes()
	pl, _ := packed.Nodes()
	if pl >= gl {
		t.Fatalf("bulk-loaded leaves %d not fewer than grown %d", pl, gl)
	}
}

func TestTreeMatchesModelRandomOps(t *testing.T) {
	rng := sim.NewRNG(99)
	tr := New()
	model := make(map[uint64]uint64)
	const space = 2000
	for step := 0; step < 50000; step++ {
		k := uint64(rng.Intn(space))
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Uint64()
			prev, existed := tr.Insert(k, v)
			mv, mok := model[k]
			if existed != mok || (existed && prev != mv) {
				t.Fatalf("step %d: Insert(%d) prev=%d,%v model=%d,%v", step, k, prev, existed, mv, mok)
			}
			model[k] = v
		case 2:
			var v uint64
			ok := tr.DeleteRange(k, k+1, func(_, val uint64) { v = val }) == 1
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("step %d: DeleteRange(%d) = %d,%v model=%d,%v", step, k, v, ok, mv, mok)
			}
			delete(model, k)
		case 3:
			v, ok := tr.Lookup(k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("step %d: Lookup(%d) = %d,%v model=%d,%v", step, k, v, ok, mv, mok)
			}
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("final Len = %d, model %d", tr.Len(), len(model))
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	// Full scan must match sorted model.
	var modelKeys []uint64
	for k := range model {
		modelKeys = append(modelKeys, k)
	}
	sort.Slice(modelKeys, func(i, j int) bool { return modelKeys[i] < modelKeys[j] })
	i := 0
	tr.All(func(k, v uint64) bool {
		if i >= len(modelKeys) || k != modelKeys[i] || v != model[k] {
			t.Fatalf("All mismatch at %d: key %d", i, k)
		}
		i++
		return true
	})
	if i != len(modelKeys) {
		t.Fatalf("All visited %d, model has %d", i, len(modelKeys))
	}
}

func TestLargeSequentialInsertHeight(t *testing.T) {
	tr := New()
	const n = 200000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, i)
	}
	if tr.Height() > 4 {
		t.Fatalf("height %d too tall for %d sequential keys with order %d", tr.Height(), n, order)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNodesAccounting(t *testing.T) {
	tr := New()
	l, in := tr.Nodes()
	if l != 1 || in != 0 {
		t.Fatalf("fresh tree nodes = %d,%d", l, in)
	}
	for i := uint64(0); i < 10000; i++ {
		tr.Insert(i, i)
	}
	l, in = tr.Nodes()
	if l < 10000/order || in == 0 {
		t.Fatalf("nodes = %d leaves, %d internals", l, in)
	}
	// Count leaves via the leaf chain and compare.
	count := 0
	n := tr.root
	for {
		innode, ok := n.(*internal)
		if !ok {
			break
		}
		n = innode.kids[0]
	}
	for lf := n.(*leaf); lf != nil; lf = lf.next {
		count++
	}
	if count != l {
		t.Fatalf("leaf chain count %d != accounting %d", count, l)
	}
}
