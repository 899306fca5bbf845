package ftlmap

import (
	"fmt"
	"slices"
	"testing"

	"iosnap/internal/sim"
)

// TestBulkMergeMatchesBulkLoad: merging a delta into a tree gives, leaf for
// leaf, the tree BulkLoad packs from the merged entries — same entries, node
// counts, height and footprint — whether the base was bulk-loaded or grown
// by inserts, and with deltas that are empty, touch only the ends, replace,
// insert or delete everything.
func TestBulkMergeMatchesBulkLoad(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{0, 1, 63, 64, 65, 4160, 10000} {
		for _, grown := range []bool{false, true} {
			for _, churn := range []int{0, 1, 10, 1000, 20000} {
				name := fmt.Sprintf("n %d grown %v churn %d", n, grown, churn)
				want := make(map[uint64]uint64)
				var base *Tree
				if grown {
					base = New()
				}
				var entries []Entry
				for i := 0; i < n; i++ {
					k := uint64(3 * i)
					want[k] = uint64(i)
					entries = append(entries, Entry{k, uint64(i)})
					if grown {
						base.Insert(k, uint64(i))
					}
				}
				if !grown {
					base = BulkLoad(entries)
				}
				before := base.MemoryBytes()
				delta := make(map[uint64]bool) // key -> written (else deleted)
				for i := 0; i < churn; i++ {
					k := rng.Uint64() % uint64(3*n+10)
					if _, ok := want[k]; ok && rng.Intn(2) == 0 {
						delete(want, k)
						delta[k] = false
					} else {
						want[k] = 1000000 + uint64(i)
						delta[k] = true
					}
				}
				var writes []Entry
				var deletes []uint64
				for _, k := range sortedKeys(delta) {
					if delta[k] {
						writes = append(writes, Entry{k, want[k]})
					} else {
						deletes = append(deletes, k)
					}
				}
				var all []Entry
				for _, k := range sortedKeys(want) {
					all = append(all, Entry{k, want[k]})
				}
				got, ref := BulkMerge(base, writes, deletes), BulkLoad(all)
				audit(t, got)
				var gotAll []Entry
				got.All(func(k, v uint64) bool { gotAll = append(gotAll, Entry{k, v}); return true })
				if !slices.Equal(gotAll, all) {
					t.Fatalf("%s: merged tree holds %d entries, want %d (or different ones)", name, len(gotAll), len(all))
				}
				gl, gi := got.Nodes()
				rl, ri := ref.Nodes()
				if gl != rl || gi != ri || got.Height() != ref.Height() || got.MemoryBytes() != ref.MemoryBytes() {
					t.Fatalf("%s: merged tree %d/%d nodes height %d %d bytes, BulkLoad %d/%d height %d %d bytes",
						name, gl, gi, got.Height(), got.MemoryBytes(), rl, ri, ref.Height(), ref.MemoryBytes())
				}
				if base.MemoryBytes() != before || base.Check() != nil {
					t.Fatalf("%s: the merge changed its base", name)
				}
			}
		}
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
