package ftlmap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// audit validates invariants the plain Check skips: node counters, size,
// and leaf-chain integrity (the chain must visit exactly the tree's keys in
// ascending order).
func audit(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	var leaves, internals, size int
	var leftmost *leaf
	var walk func(n node)
	walk = func(n node) {
		switch n := n.(type) {
		case *leaf:
			leaves++
			size += len(n.keys)
			if leftmost == nil {
				leftmost = n
			}
		case *internal:
			internals++
			for _, k := range n.kids {
				walk(k)
			}
		}
	}
	walk(tr.root)
	if leaves != tr.leaves || internals != tr.internals || size != tr.size {
		t.Fatalf("counters: have leaves=%d internals=%d size=%d, tree says %d/%d/%d",
			leaves, internals, size, tr.leaves, tr.internals, tr.size)
	}
	var chain []uint64
	for lf := leftmost; lf != nil; lf = lf.next {
		chain = append(chain, lf.keys...)
	}
	var inorder []uint64
	tr.All(func(k, v uint64) bool { inorder = append(inorder, k); return true })
	if len(chain) != len(inorder) {
		t.Fatalf("chain has %d keys, tree has %d", len(chain), len(inorder))
	}
	for i := range chain {
		if chain[i] != inorder[i] {
			t.Fatalf("chain[%d]=%d != inorder %d", i, chain[i], inorder[i])
		}
	}
	if len(chain) != tr.size {
		t.Fatalf("chain %d keys, size %d", len(chain), tr.size)
	}
}

// TestRunOpsMatchPerKey drives random run inserts, range deletes and range
// lookups through the tree and checks each against a Go map, key by key:
// InsertRun's replaced values, DeleteRange's removed pairs in ascending
// order, and LookupRange's hits.
func TestRunOpsMatchPerKey(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ref := make(map[uint64]uint64)
			tut := New()
			const keySpace = 1 << 14
			for step := 0; step < 400; step++ {
				lo := uint64(rng.Intn(keySpace))
				n := 1 + rng.Intn(300)
				switch rng.Intn(3) {
				case 0: // insert a run of consecutive keys
					entries := make([]Entry, n)
					for i := range entries {
						entries[i] = Entry{Key: lo + uint64(i), Val: rng.Uint64()}
					}
					var refPrev, tutPrev []string
					for i, e := range entries {
						if prev, ok := ref[e.Key]; ok {
							refPrev = append(refPrev, fmt.Sprint(i, prev))
						}
						ref[e.Key] = e.Val
					}
					tut.InsertRun(entries, func(i int, prev uint64) {
						tutPrev = append(tutPrev, fmt.Sprint(i, prev))
					})
					if fmt.Sprint(refPrev) != fmt.Sprint(tutPrev) {
						t.Fatalf("step %d: prev callbacks differ:\nref %v\ntut %v", step, refPrev, tutPrev)
					}
				case 1: // delete a range
					hi := lo + uint64(n)
					var refDel, tutDel []string
					for k := lo; k < hi; k++ {
						if v, ok := ref[k]; ok {
							refDel = append(refDel, fmt.Sprint(k, v))
							delete(ref, k)
						}
					}
					tutCount := tut.DeleteRange(lo, hi, func(k, v uint64) {
						tutDel = append(tutDel, fmt.Sprint(k, v))
					})
					if tutCount != len(refDel) {
						t.Fatalf("step %d: DeleteRange removed %d, the map held %d", step, tutCount, len(refDel))
					}
					if fmt.Sprint(refDel) != fmt.Sprint(tutDel) {
						t.Fatalf("step %d: delete callbacks differ:\nref %v\ntut %v", step, refDel, tutDel)
					}
				case 2: // range lookup
					vals := make([]uint64, n)
					found := make([]bool, n)
					hits := tut.LookupRange(lo, vals, found)
					wantHits := 0
					for i := 0; i < n; i++ {
						wv, wok := ref[lo+uint64(i)]
						if wok {
							wantHits++
						}
						if wok != found[i] || (wok && wv != vals[i]) {
							t.Fatalf("step %d: LookupRange key %d: got (%d,%v) want (%d,%v)",
								step, lo+uint64(i), vals[i], found[i], wv, wok)
						}
					}
					if hits != wantHits {
						t.Fatalf("step %d: hits %d want %d", step, hits, wantHits)
					}
				}
				if len(ref) != tut.Len() {
					t.Fatalf("step %d: size %d vs %d", step, tut.Len(), len(ref))
				}
				if step%37 == 0 {
					audit(t, tut)
				}
			}
			audit(t, tut)
			// Final content equivalence.
			keys := make([]uint64, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			var want, got []string
			for _, k := range keys {
				want = append(want, fmt.Sprint(k, ref[k]))
			}
			tut.All(func(k, v uint64) bool { got = append(got, fmt.Sprint(k, v)); return true })
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("content differs")
			}
		})
	}
}

func TestInsertRunLargeIntoEmpty(t *testing.T) {
	tr := New()
	const n = 100000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i * 3), Val: uint64(i)}
	}
	tr.InsertRun(entries, nil)
	audit(t, tr)
	if tr.Len() != n {
		t.Fatalf("len %d want %d", tr.Len(), n)
	}
	vals := make([]uint64, 10)
	found := make([]bool, 10)
	tr.LookupRange(30, vals, found)
	if !found[0] || vals[0] != 10 || found[1] {
		t.Fatalf("lookup after bulk insert wrong: %v %v", vals, found)
	}
}

func TestDeleteRangeEverything(t *testing.T) {
	tr := New()
	entries := make([]Entry, 5000)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i), Val: uint64(i)}
	}
	tr.InsertRun(entries, nil)
	if got := tr.DeleteRange(0, 5000, nil); got != 5000 {
		t.Fatalf("deleted %d", got)
	}
	audit(t, tr)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("not empty: len=%d height=%d", tr.Len(), tr.Height())
	}
	// Tree must be fully reusable after total deletion.
	tr.InsertRun(entries[:100], nil)
	audit(t, tr)
	if tr.Len() != 100 {
		t.Fatalf("reinsert len %d", tr.Len())
	}
}

// TestRunSpanCountsPackedLeaves: RunSpan, what the FTLs charge a run's map
// cost against, is the number of leaves a run starting at a leaf boundary
// touches in a bulk-loaded tree.
func TestRunSpanCountsPackedLeaves(t *testing.T) {
	entries := make([]Entry, 10*order)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i), Val: uint64(i)}
	}
	tr := BulkLoad(entries)
	first := tr.root
	for in, ok := first.(*internal); ok; in, ok = first.(*internal) {
		first = in.kids[0]
	}
	for n := 1; n <= len(entries); n++ {
		touched := 0
		for lf := first.(*leaf); lf != nil && lf.keys[0] < uint64(n); lf = lf.next {
			touched++
		}
		if got := RunSpan(n); got != touched {
			t.Fatalf("RunSpan(%d) = %d, a packed tree's run touches %d leaves", n, got, touched)
		}
	}
}
