// Run-based batch operations on the forward map. A multi-sector request
// translates to a run of consecutive LBAs; serving it with per-key
// Insert/Lookup costs one full root-to-leaf descent per sector even though
// consecutive keys almost always land in the same handful of leaves. The
// operations here descend once per *touched leaf* instead: InsertRun merges
// a sorted run into the leaf chain with multi-way splits, LookupRange
// resolves a run with a single descent plus a next-pointer walk, and
// DeleteRange splices a key interval out of the chain and prunes emptied
// nodes. The FTLs charge logcore's per-descent map cost against RunSpan, the
// leaves a run would touch in a maximally-packed tree (see DESIGN.md §10).
package ftlmap

// RunSpan is the modeled descent count for a run of n consecutive keys: one
// root-to-leaf descent plus one next-pointer hop per additional leaf of a
// maximally-packed tree. The FTLs charge the map cost against this instead of
// the leaves the live tree spans because the model must be shape-independent:
// bulk-loaded and organically-grown trees spread the same keys over
// different leaf counts, and a request must charge the same virtual time
// whichever shape the map has grown into.
func RunSpan(n int) int {
	if n <= 0 {
		return 1
	}
	return 1 + (n-1)/order
}

// LookupRange resolves the len(vals) consecutive keys lo, lo+1, ... with a
// single descent followed by a leaf-chain walk. vals[i] and found[i] are
// filled for key lo+i; it returns the number of keys found. vals and found
// must have equal length, and found must be all-false on entry (the caller
// owns and typically reuses both).
func (t *Tree) LookupRange(lo uint64, vals []uint64, found []bool) int {
	if len(vals) != len(found) {
		panic("ftlmap: LookupRange vals/found length mismatch")
	}
	hi := lo + uint64(len(vals))
	n := t.root
	for {
		in, ok := n.(*internal)
		if !ok {
			break
		}
		n = in.kids[upperBound(in.keys, lo)]
	}
	hits := 0
	for lf := n.(*leaf); lf != nil; lf = lf.next {
		i := 0
		if lf == n.(*leaf) {
			i = lowerBound(lf.keys, lo)
		}
		for ; i < len(lf.keys); i++ {
			k := lf.keys[i]
			if k >= hi {
				return hits
			}
			if k >= lo {
				vals[k-lo] = lf.vals[i]
				found[k-lo] = true
				hits++
			}
		}
	}
	return hits
}

// InsertRun inserts entries — strictly ascending by key, like BulkLoad input
// — descending once per touched leaf and splitting multi-way where a run
// overfills a node. For every key that replaced an existing mapping, onPrev
// is called with the entry's index and the previous value (nil to ignore).
// It panics on an unsorted run, mirroring BulkLoad.
func (t *Tree) InsertRun(entries []Entry, onPrev func(i int, prev uint64)) {
	if len(entries) == 0 {
		return
	}
	if len(entries) == 1 {
		// A run of one is a plain insert: cheaper, and it preserves the
		// organic growth profile of per-sector workloads (splits that leave
		// half-full leaves — what makes activation's bulk-loaded tree the
		// compact one, Table 3).
		if prev, existed := t.Insert(entries[0].Key, entries[0].Val); existed && onPrev != nil {
			onPrev(0, prev)
		}
		return
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			panic("ftlmap: InsertRun entries not strictly ascending")
		}
	}
	rights, seps := t.insertRun(t.root, entries, 0, onPrev)
	for len(rights) > 0 {
		nroot := &internal{
			keys: append([]uint64(nil), seps...),
			kids: append([]node{t.root}, rights...),
		}
		t.internals++
		t.height++
		t.root = nroot
		if len(nroot.keys) <= order {
			break
		}
		rights, seps = t.splitInternal(nroot)
	}
}

// insertRun inserts entries (all within n's key range) into subtree n.
// Splits propagate up as a list of new right siblings plus the separator
// keys that precede each of them.
func (t *Tree) insertRun(n node, entries []Entry, base int, onPrev func(int, uint64)) (rights []node, seps []uint64) {
	switch n := n.(type) {
	case *leaf:
		t.mergeRunIntoLeaf(n, entries, base, onPrev)
		if len(n.keys) <= order {
			return nil, nil
		}
		return t.splitLeaf(n)
	case *internal:
		// Jump straight to the first touched child and stop once the run is
		// consumed; the node is only rebuilt if some child actually split.
		// (The common steady-state case — overwrites that split nothing —
		// touches no internal-node memory at all.)
		type splice struct {
			at     int
			rights []node
			seps   []uint64
		}
		var splices []splice
		extra := 0
		ei := 0
		for ci := upperBound(n.keys, entries[0].Key); ei < len(entries); ci++ {
			hi := ^uint64(0)
			if ci < len(n.keys) {
				hi = n.keys[ci]
			}
			j := ei
			for j < len(entries) && entries[j].Key < hi {
				j++
			}
			if j > ei {
				rs, ss := t.insertRun(n.kids[ci], entries[ei:j], base+ei, onPrev)
				if len(rs) > 0 {
					splices = append(splices, splice{ci, rs, ss})
					extra += len(rs)
				}
				ei = j
			}
		}
		if len(splices) == 0 {
			return nil, nil
		}
		nkeys := make([]uint64, 0, len(n.keys)+extra)
		nkids := make([]node, 0, len(n.kids)+extra)
		si := 0
		for ci, kid := range n.kids {
			if ci > 0 {
				nkeys = append(nkeys, n.keys[ci-1])
			}
			nkids = append(nkids, kid)
			if si < len(splices) && splices[si].at == ci {
				for r := range splices[si].rights {
					nkeys = append(nkeys, splices[si].seps[r])
					nkids = append(nkids, splices[si].rights[r])
				}
				si++
			}
		}
		n.keys, n.kids = nkeys, nkids
		if len(n.keys) <= order {
			return nil, nil
		}
		return t.splitInternal(n)
	}
	panic("ftlmap: unknown node type")
}

// mergeRunIntoLeaf merges a sorted run into a leaf's sorted arrays in one
// two-pointer pass, replacing values for duplicate keys. The two dominant
// workloads take allocation-free fast paths: a run appended past the leaf's
// last key (bulk fill of a fresh region) and a run whose keys are all
// already present (steady-state overwrite).
func (t *Tree) mergeRunIntoLeaf(lf *leaf, entries []Entry, base int, onPrev func(int, uint64)) {
	if len(lf.keys) == 0 || entries[0].Key > lf.keys[len(lf.keys)-1] {
		for j := range entries {
			lf.keys = append(lf.keys, entries[j].Key)
			lf.vals = append(lf.vals, entries[j].Val)
		}
		t.size += len(entries)
		return
	}
	if i0 := lowerBound(lf.keys, entries[0].Key); i0+len(entries) <= len(lf.keys) {
		match := true
		for j := range entries {
			if lf.keys[i0+j] != entries[j].Key {
				match = false
				break
			}
		}
		if match {
			for j := range entries {
				if onPrev != nil {
					onPrev(base+j, lf.vals[i0+j])
				}
				lf.vals[i0+j] = entries[j].Val
			}
			return
		}
	}
	nk := make([]uint64, 0, len(lf.keys)+len(entries))
	nv := make([]uint64, 0, len(lf.keys)+len(entries))
	i, j := 0, 0
	for i < len(lf.keys) && j < len(entries) {
		switch {
		case lf.keys[i] < entries[j].Key:
			nk = append(nk, lf.keys[i])
			nv = append(nv, lf.vals[i])
			i++
		case lf.keys[i] > entries[j].Key:
			nk = append(nk, entries[j].Key)
			nv = append(nv, entries[j].Val)
			j++
			t.size++
		default:
			if onPrev != nil {
				onPrev(base+j, lf.vals[i])
			}
			nk = append(nk, entries[j].Key)
			nv = append(nv, entries[j].Val)
			i++
			j++
		}
	}
	for ; i < len(lf.keys); i++ {
		nk = append(nk, lf.keys[i])
		nv = append(nv, lf.vals[i])
	}
	for ; j < len(entries); j++ {
		nk = append(nk, entries[j].Key)
		nv = append(nv, entries[j].Val)
		t.size++
	}
	lf.keys, lf.vals = nk, nv
}

// splitLeaf splits an overfull leaf into balanced pieces of at most order
// keys. The first piece stays in lf; the rest are returned with their
// separator keys (each new leaf's first key), chain-linked in place.
func (t *Tree) splitLeaf(lf *leaf) (rights []node, seps []uint64) {
	total := len(lf.keys)
	pieces := (total + order - 1) / order
	per := total / pieces
	extra := total % pieces
	sizeOf := func(p int) int {
		if p < extra {
			return per + 1
		}
		return per
	}
	start := sizeOf(0)
	prev := lf
	tail := lf.next
	for p := 1; p < pieces; p++ {
		end := start + sizeOf(p)
		r := &leaf{
			keys: append([]uint64(nil), lf.keys[start:end]...),
			vals: append([]uint64(nil), lf.vals[start:end]...),
		}
		prev.next = r
		prev = r
		rights = append(rights, r)
		seps = append(seps, r.keys[0])
		t.leaves++
		start = end
	}
	prev.next = tail
	lf.keys = lf.keys[:sizeOf(0)]
	lf.vals = lf.vals[:sizeOf(0)]
	return rights, seps
}

// splitInternal splits an overfull internal node into balanced pieces of at
// most order keys, promoting one separator key between each pair of pieces.
// The first piece stays in n.
func (t *Tree) splitInternal(n *internal) (rights []node, seps []uint64) {
	total := len(n.keys)
	// m pieces hold total-(m-1) keys after promoting m-1 separators.
	pieces := (total + 1 + order) / (order + 1)
	kept := total - (pieces - 1)
	per := kept / pieces
	extra := kept % pieces
	sizeOf := func(p int) int {
		if p < extra {
			return per + 1
		}
		return per
	}
	start := sizeOf(0)
	for p := 1; p < pieces; p++ {
		sep := n.keys[start]
		kstart := start + 1
		kend := kstart + sizeOf(p)
		r := &internal{
			keys: append([]uint64(nil), n.keys[kstart:kend]...),
			kids: append([]node(nil), n.kids[kstart:kend+1]...),
		}
		rights = append(rights, r)
		seps = append(seps, sep)
		t.internals++
		start = kend
	}
	n.keys = n.keys[:sizeOf(0)]
	n.kids = n.kids[:sizeOf(0)+1]
	return rights, seps
}

// DeleteRange removes every mapping with lo <= key < hi, calling onDel (if
// non-nil) for each removed pair in ascending key order, and returns the
// number removed. Emptied leaves are unlinked from the chain and emptied
// nodes pruned; nodes are allowed to underflow (occupancy below the split
// threshold is legal — the tree only guarantees ordering and depth
// invariants).
func (t *Tree) DeleteRange(lo, hi uint64, onDel func(key, val uint64)) int {
	if hi <= lo {
		return 0
	}
	// Locate the leaf chain predecessor of the range: the rightmost leaf
	// strictly to the left of the descent path, so the chain can be repaired
	// if leading leaves of the range empty out.
	var pred *leaf
	n := t.root
	for {
		in, ok := n.(*internal)
		if !ok {
			break
		}
		idx := upperBound(in.keys, lo)
		if idx > 0 {
			r := in.kids[idx-1]
			for {
				if rin, ok := r.(*internal); ok {
					r = rin.kids[len(rin.kids)-1]
					continue
				}
				break
			}
			pred = r.(*leaf)
		}
		n = in.kids[idx]
	}
	first := n.(*leaf)

	// Splice the range out of each touched leaf.
	deleted := 0
	last := first
	for lf := first; lf != nil; lf = lf.next {
		last = lf
		i := lowerBound(lf.keys, lo)
		j := lowerBound(lf.keys, hi)
		if onDel != nil {
			for k := i; k < j; k++ {
				onDel(lf.keys[k], lf.vals[k])
			}
		}
		if j > i {
			deleted += j - i
			lf.keys = append(lf.keys[:i], lf.keys[j:]...)
			lf.vals = append(lf.vals[:i], lf.vals[j:]...)
		}
		if lf.next != nil && len(lf.next.keys) > 0 && lf.next.keys[0] >= hi {
			break
		}
	}
	if deleted == 0 {
		return 0
	}
	t.size -= deleted

	// Repair the chain across emptied leaves. Empty leaves form a contiguous
	// stretch within [first, last]; link the last surviving leaf before the
	// stretch to the first surviving leaf after it.
	link := pred
	for lf := first; ; lf = lf.next {
		if len(lf.keys) > 0 {
			link = lf
		} else if link != nil {
			link.next = lf.next
		}
		if lf == last {
			break
		}
	}

	// Prune emptied nodes bottom-up along the touched range. An empty root
	// leaf is already the canonical empty tree, so only internal roots need
	// the pass.
	if _, ok := t.root.(*internal); ok {
		if t.prune(t.root, lo, hi) {
			t.root = &leaf{}
			t.height = 1
			t.leaves = 1
			return deleted
		}
		for {
			in, ok := t.root.(*internal)
			if !ok || len(in.kids) != 1 {
				break
			}
			t.root = in.kids[0]
			t.internals--
			t.height--
		}
	}
	return deleted
}

// prune removes empty descendants of n within the touched key range and
// reports whether n itself is now empty (its node counter already adjusted).
func (t *Tree) prune(n node, lo, hi uint64) (empty bool) {
	switch n := n.(type) {
	case *leaf:
		if len(n.keys) == 0 {
			t.leaves--
			return true
		}
		return false
	case *internal:
		// Kids that can intersect [lo, hi): the descent targets for lo
		// through hi-1 inclusive (hi > lo is guaranteed by the caller).
		from := upperBound(n.keys, lo)
		to := upperBound(n.keys, hi-1)
		w := from
		for ci := from; ci <= to; ci++ {
			if t.prune(n.kids[ci], lo, hi) {
				continue
			}
			n.kids[w] = n.kids[ci]
			w++
		}
		removed := to + 1 - w
		if removed > 0 {
			copy(n.kids[w:], n.kids[to+1:])
			n.kids = n.kids[:len(n.kids)-removed]
			if removed >= len(n.keys) {
				n.keys = n.keys[:0]
			} else {
				// Each removed kid consumes one adjacent separator: its left
				// one when a left sibling survives, its right one otherwise.
				ks := w
				if ks > 0 {
					ks--
				}
				n.keys = append(n.keys[:ks], n.keys[ks+removed:]...)
			}
		}
		if len(n.kids) == 0 {
			t.internals--
			return true
		}
		return false
	}
	panic("ftlmap: unknown node type")
}
