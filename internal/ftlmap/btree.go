// Package ftlmap implements the FTL's forward map: an in-memory B+tree
// translating logical block addresses (LBAs) to physical page addresses,
// the structure the paper's VSL keeps in host memory (§5.2.2).
//
// The tree keeps the operations the FTLs run: point insert and lookup, the
// run operations of runops.go (trims delete through DeleteRange; there is no
// per-key delete), ordered walks, and bottom-up bulk loading from sorted
// entries. Bulk loading is how both crash recovery (§5.5.1, "sort the
// entries ... and reconstruct the forward map in a bottom up fashion") and
// snapshot activation build their trees — and why an activated snapshot's
// tree is more compact than an organically grown active tree with identical
// contents, the effect the paper measures in Table 3.
package ftlmap

// order is the maximum number of keys per node. 64 keys × 16 bytes keeps
// nodes around a cache-line-friendly 1 KB.
const order = 64

// Tree is a B+tree from uint64 keys (LBAs) to uint64 values (physical page
// addresses). The zero value is not usable; call New.
type Tree struct {
	root      node
	height    int // 1 = root is a leaf
	size      int
	leaves    int
	internals int
}

type node interface{ isNode() }

type leaf struct {
	keys []uint64
	vals []uint64
	next *leaf
}

type internal struct {
	keys []uint64 // keys[i] separates kids[i] (< keys[i]) from kids[i+1] (>= keys[i])
	kids []node
}

func (*leaf) isNode()     {}
func (*internal) isNode() {}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &leaf{}, height: 1, leaves: 1}
}

// Len returns the number of mappings.
func (t *Tree) Len() int { return t.size }

// MemoryBytes estimates the heap footprint of the tree: per-node fixed
// overhead plus per-entry storage, using each node's *capacity* (allocated
// space), which is what makes fragmentation after random growth visible —
// the paper's Table 3 effect.
func (t *Tree) MemoryBytes() int64 {
	var total int64
	var walk func(n node)
	walk = func(n node) {
		switch n := n.(type) {
		case *leaf:
			total += 48 + int64(cap(n.keys))*8 + int64(cap(n.vals))*8
		case *internal:
			total += 48 + int64(cap(n.keys))*8 + int64(cap(n.kids))*16
			for _, k := range n.kids {
				walk(k)
			}
		}
	}
	walk(t.root)
	return total
}

// upperBound returns the first index i with keys[i] > k.
func upperBound(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index i with keys[i] >= k.
func lowerBound(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Lookup returns the value mapped to key and whether it exists.
func (t *Tree) Lookup(key uint64) (uint64, bool) {
	n := t.root
	for {
		switch nn := n.(type) {
		case *internal:
			n = nn.kids[upperBound(nn.keys, key)]
		case *leaf:
			i := lowerBound(nn.keys, key)
			if i < len(nn.keys) && nn.keys[i] == key {
				return nn.vals[i], true
			}
			return 0, false
		}
	}
}

// Insert adds or replaces the mapping for key. It returns the previous value
// and whether one existed.
func (t *Tree) Insert(key, val uint64) (prev uint64, existed bool) {
	right, sep, split, prev, existed := t.insert(t.root, key, val)
	if split {
		t.root = &internal{keys: []uint64{sep}, kids: []node{t.root, right}}
		t.internals++
		t.height++
	}
	if !existed {
		t.size++
	}
	return prev, existed
}

func (t *Tree) insert(n node, key, val uint64) (right node, sep uint64, split bool, prev uint64, existed bool) {
	switch n := n.(type) {
	case *leaf:
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			prev, existed = n.vals[i], true
			n.vals[i] = val
			return nil, 0, false, prev, existed
		}
		n.keys = append(n.keys, 0)
		n.vals = append(n.vals, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.vals[i+1:], n.vals[i:])
		n.keys[i] = key
		n.vals[i] = val
		if len(n.keys) <= order {
			return nil, 0, false, 0, false
		}
		// Split the leaf.
		mid := len(n.keys) / 2
		r := &leaf{
			keys: append([]uint64(nil), n.keys[mid:]...),
			vals: append([]uint64(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = r
		t.leaves++
		return r, r.keys[0], true, 0, false
	case *internal:
		idx := upperBound(n.keys, key)
		r, s, sp, prev, existed := t.insert(n.kids[idx], key, val)
		if !sp {
			return nil, 0, false, prev, existed
		}
		n.keys = append(n.keys, 0)
		n.kids = append(n.kids, nil)
		copy(n.keys[idx+1:], n.keys[idx:])
		copy(n.kids[idx+2:], n.kids[idx+1:])
		n.keys[idx] = s
		n.kids[idx+1] = r
		if len(n.keys) <= order {
			return nil, 0, false, prev, existed
		}
		mid := len(n.keys) / 2
		sepUp := n.keys[mid]
		rn := &internal{
			keys: append([]uint64(nil), n.keys[mid+1:]...),
			kids: append([]node(nil), n.kids[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.kids = n.kids[:mid+1]
		t.internals++
		return rn, sepUp, true, prev, existed
	}
	panic("ftlmap: unknown node type")
}

// Range calls fn for every mapping with lo <= key < hi in ascending key
// order, stopping early if fn returns false.
func (t *Tree) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	n := t.root
	for {
		in, ok := n.(*internal)
		if !ok {
			break
		}
		n = in.kids[upperBound(in.keys, lo)]
	}
	for lf := n.(*leaf); lf != nil; lf = lf.next {
		for i, k := range lf.keys {
			if k < lo {
				continue
			}
			if k >= hi {
				return
			}
			if !fn(k, lf.vals[i]) {
				return
			}
		}
	}
}

// All calls fn for every mapping in ascending key order.
func (t *Tree) All(fn func(key, val uint64) bool) {
	t.Range(0, ^uint64(0), fn)
	// Note: ^uint64(0) itself can never be visited as hi is exclusive; the
	// FTL never uses the all-ones LBA, reserving it as an invalid sentinel.
}

// Entry is one key/value pair, used by BulkLoad.
type Entry struct {
	Key uint64
	Val uint64
}

// BulkLoad builds a tree bottom-up from entries sorted by ascending unique
// key, packing every node full: the most compact tree possible. It panics
// if entries are unsorted or duplicated — callers sort and deduplicate
// during recovery/activation.
func BulkLoad(entries []Entry) *Tree {
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			panic("ftlmap: BulkLoad entries not strictly ascending")
		}
	}
	p := &packer{left: len(entries)}
	for _, e := range entries {
		p.add(e.Key, e.Val)
	}
	return p.tree()
}

// BulkMerge returns the tree BulkLoad(entries) builds, where entries are
// base's with writes put (inserted or replacing) and deletes removed. Both
// lists ascend by key, and no key is in both. It is one pass over base's
// leaves that copies the runs between the delta keys, so it costs base's
// size in word copies and the delta's in lookups; base is not modified. The
// leaves share two backing arrays, one for keys and one for values, so the
// tree suits a map whose keys stay put (an activated view's): a leaf that
// splits later keeps its share of the arrays alive.
func BulkMerge(base *Tree, writes []Entry, deletes []uint64) *Tree {
	n := base.size
	for _, e := range writes {
		if _, ok := base.Lookup(e.Key); !ok {
			n++
		}
	}
	for _, k := range deletes {
		if _, ok := base.Lookup(k); ok {
			n--
		}
	}
	p := &packer{left: n, keys: make([]uint64, n), vals: make([]uint64, n)}
	first := base.root
	for in, ok := first.(*internal); ok; in, ok = first.(*internal) {
		first = in.kids[0]
	}
	lf, i := first.(*leaf), 0
	// copyBelow copies base's entries with keys below k (all with last),
	// then steps over k itself.
	copyBelow := func(k uint64, last bool) {
		for ; lf != nil; lf, i = lf.next, 0 {
			j := len(lf.keys)
			if !last {
				j = i + lowerBound(lf.keys[i:], k)
			}
			p.run(lf.keys[i:j], lf.vals[i:j])
			if j < len(lf.keys) {
				i = j
				if lf.keys[i] == k {
					i++
				}
				return
			}
		}
	}
	for len(writes) > 0 || len(deletes) > 0 {
		if len(deletes) == 0 || len(writes) > 0 && writes[0].Key < deletes[0] {
			copyBelow(writes[0].Key, false)
			p.add(writes[0].Key, writes[0].Val)
			writes = writes[1:]
		} else {
			copyBelow(deletes[0], false)
			deletes = deletes[1:]
		}
	}
	copyBelow(0, true)
	return p.tree()
}

// packer builds a tree's leaves left to right, order entries to a leaf but
// the last, which is sized to what is left: the layout BulkLoad gives.
type packer struct {
	left       int      // entries still to come
	keys, vals []uint64 // when non-nil, the rest of the arrays leaves are cut from
	leaves     []node
	cur        *leaf
}

// room returns the leaf the next entry goes into.
func (p *packer) room() *leaf {
	if p.cur == nil || len(p.cur.keys) == cap(p.cur.keys) {
		n := min(order, p.left)
		if n <= 0 {
			panic("ftlmap: more entries packed than the tree was sized for")
		}
		var lf *leaf
		if p.keys != nil {
			lf = &leaf{keys: p.keys[:0:n], vals: p.vals[:0:n]}
			p.keys, p.vals = p.keys[n:], p.vals[n:]
		} else {
			lf = &leaf{keys: make([]uint64, 0, n), vals: make([]uint64, 0, n)}
		}
		if p.cur != nil {
			p.cur.next = lf
		}
		p.cur = lf
		p.leaves = append(p.leaves, lf)
	}
	return p.cur
}

func (p *packer) add(k, v uint64) {
	lf := p.room()
	lf.keys = append(lf.keys, k)
	lf.vals = append(lf.vals, v)
	p.left--
}

// run appends ascending entries a leaf's worth of words at a time.
func (p *packer) run(keys, vals []uint64) {
	for len(keys) > 0 {
		lf := p.room()
		k := min(cap(lf.keys)-len(lf.keys), len(keys))
		lf.keys = append(lf.keys, keys[:k]...)
		lf.vals = append(lf.vals, vals[:k]...)
		keys, vals = keys[k:], vals[k:]
		p.left -= k
	}
}

// tree builds the internal levels over the packed leaves.
func (p *packer) tree() *Tree {
	t := &Tree{height: 1}
	if len(p.leaves) == 0 {
		t.root, t.leaves = &leaf{}, 1
		return t
	}
	t.leaves = len(p.leaves)
	level := p.leaves
	levelSeps := make([]uint64, len(level)-1) // levelSeps[i] = first key of level[i+1]
	for i := range levelSeps {
		levelSeps[i] = level[i+1].(*leaf).keys[0]
		t.size += len(level[i].(*leaf).keys)
	}
	t.size += len(p.cur.keys)
	for len(level) > 1 {
		var nextLevel []node
		var nextSeps []uint64
		for start := 0; start < len(level); start += order + 1 {
			end := start + order + 1
			if end > len(level) {
				end = len(level)
			}
			in := &internal{
				kids: append([]node(nil), level[start:end]...),
				keys: append([]uint64(nil), levelSeps[start:end-1]...),
			}
			t.internals++
			if len(nextLevel) > 0 {
				nextSeps = append(nextSeps, levelSeps[start-1])
			}
			nextLevel = append(nextLevel, in)
		}
		level = nextLevel
		levelSeps = nextSeps
		t.height++
	}
	t.root = level[0]
	return t
}
