// Package ftlmap implements the FTL's forward map: an in-memory B+tree
// translating logical block addresses (LBAs) to physical page addresses,
// the structure the paper's VSL keeps in host memory (§5.2.2).
//
// Besides the usual insert/lookup/delete, the tree supports bottom-up bulk
// loading from sorted entries. That is how both crash recovery (§5.5.1,
// "sort the entries ... and reconstruct the forward map in a bottom up
// fashion") and snapshot activation build their trees — and why an activated
// snapshot's tree is more compact than an organically grown active tree with
// identical contents, the effect the paper measures in Table 3.
package ftlmap

import "fmt"

// order is the maximum number of keys per node. 64 keys × 16 bytes keeps
// nodes around a cache-line-friendly 1 KB.
const order = 64

// minKeys is the underflow threshold for non-root nodes.
const minKeys = order / 2

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

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Nodes returns the number of leaf and internal nodes.
func (t *Tree) Nodes() (leaves, internals int) { return t.leaves, t.internals }

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

// Delete removes the mapping for key, returning its value and whether it
// existed.
func (t *Tree) Delete(key uint64) (uint64, bool) {
	val, existed := t.delete(t.root, key)
	if existed {
		t.size--
	}
	// Collapse a root internal node with a single child.
	if in, ok := t.root.(*internal); ok && len(in.kids) == 1 {
		t.root = in.kids[0]
		t.internals--
		t.height--
	}
	return val, existed
}

func (t *Tree) delete(n node, key uint64) (uint64, bool) {
	switch n := n.(type) {
	case *leaf:
		i := lowerBound(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			return 0, false
		}
		val := n.vals[i]
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return val, true
	case *internal:
		idx := upperBound(n.keys, key)
		val, existed := t.delete(n.kids[idx], key)
		if existed {
			t.rebalance(n, idx)
		}
		return val, existed
	}
	panic("ftlmap: unknown node type")
}

// rebalance fixes a possible underflow of n.kids[idx] by borrowing from or
// merging with a sibling.
func (t *Tree) rebalance(n *internal, idx int) {
	switch child := n.kids[idx].(type) {
	case *leaf:
		if len(child.keys) >= minKeys {
			return
		}
		// Borrow from left sibling.
		if idx > 0 {
			left := n.kids[idx-1].(*leaf)
			if len(left.keys) > minKeys {
				last := len(left.keys) - 1
				child.keys = append([]uint64{left.keys[last]}, child.keys...)
				child.vals = append([]uint64{left.vals[last]}, child.vals...)
				left.keys = left.keys[:last]
				left.vals = left.vals[:last]
				n.keys[idx-1] = child.keys[0]
				return
			}
		}
		// Borrow from right sibling.
		if idx < len(n.kids)-1 {
			right := n.kids[idx+1].(*leaf)
			if len(right.keys) > minKeys {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = right.keys[1:]
				right.vals = right.vals[1:]
				n.keys[idx] = right.keys[0]
				return
			}
		}
		// Merge with a sibling.
		if idx > 0 {
			left := n.kids[idx-1].(*leaf)
			left.keys = append(left.keys, child.keys...)
			left.vals = append(left.vals, child.vals...)
			left.next = child.next
			n.keys = append(n.keys[:idx-1], n.keys[idx:]...)
			n.kids = append(n.kids[:idx], n.kids[idx+1:]...)
			t.leaves--
			return
		}
		right := n.kids[idx+1].(*leaf)
		child.keys = append(child.keys, right.keys...)
		child.vals = append(child.vals, right.vals...)
		child.next = right.next
		n.keys = append(n.keys[:idx], n.keys[idx+1:]...)
		n.kids = append(n.kids[:idx+1], n.kids[idx+2:]...)
		t.leaves--
	case *internal:
		if len(child.keys) >= minKeys {
			return
		}
		if idx > 0 {
			left := n.kids[idx-1].(*internal)
			if len(left.keys) > minKeys {
				last := len(left.keys) - 1
				child.keys = append([]uint64{n.keys[idx-1]}, child.keys...)
				child.kids = append([]node{left.kids[len(left.kids)-1]}, child.kids...)
				n.keys[idx-1] = left.keys[last]
				left.keys = left.keys[:last]
				left.kids = left.kids[:len(left.kids)-1]
				return
			}
		}
		if idx < len(n.kids)-1 {
			right := n.kids[idx+1].(*internal)
			if len(right.keys) > minKeys {
				child.keys = append(child.keys, n.keys[idx])
				child.kids = append(child.kids, right.kids[0])
				n.keys[idx] = right.keys[0]
				right.keys = right.keys[1:]
				right.kids = right.kids[1:]
				return
			}
		}
		if idx > 0 {
			left := n.kids[idx-1].(*internal)
			left.keys = append(left.keys, n.keys[idx-1])
			left.keys = append(left.keys, child.keys...)
			left.kids = append(left.kids, child.kids...)
			n.keys = append(n.keys[:idx-1], n.keys[idx:]...)
			n.kids = append(n.kids[:idx], n.kids[idx+1:]...)
			t.internals--
			return
		}
		right := n.kids[idx+1].(*internal)
		child.keys = append(child.keys, n.keys[idx])
		child.keys = append(child.keys, right.keys...)
		child.kids = append(child.kids, right.kids...)
		n.keys = append(n.keys[:idx], n.keys[idx+1:]...)
		n.kids = append(n.kids[:idx+1], n.kids[idx+2:]...)
		t.internals--
	}
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
// key, packing leaves to the given fill factor in (0, 1]. A fill of 1 yields
// the most compact tree possible. It panics if entries are unsorted or
// duplicated — callers sort and deduplicate during recovery/activation.
func BulkLoad(entries []Entry, fill float64) *Tree {
	if fill <= 0 || fill > 1 {
		panic(fmt.Sprintf("ftlmap: fill factor %v out of (0,1]", fill))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			panic("ftlmap: BulkLoad entries not strictly ascending")
		}
	}
	p := &packer{perLeaf: max(int(float64(order)*fill), 1), left: len(entries)}
	for _, e := range entries {
		p.add(e.Key, e.Val)
	}
	return p.tree()
}

// BulkMerge returns the tree BulkLoad(entries, 1) builds, where entries are
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
	p := &packer{perLeaf: order, left: n, keys: make([]uint64, n), vals: make([]uint64, n)}
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

// packer builds a tree's leaves left to right, perLeaf entries to a leaf
// but the last, which is sized to what is left: the layout BulkLoad gives.
type packer struct {
	perLeaf    int
	left       int      // entries still to come
	keys, vals []uint64 // when non-nil, the rest of the arrays leaves are cut from
	leaves     []node
	cur        *leaf
}

// room returns the leaf the next entry goes into.
func (p *packer) room() *leaf {
	if p.cur == nil || len(p.cur.keys) == cap(p.cur.keys) {
		n := min(p.perLeaf, p.left)
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
	perNode := min(p.perLeaf, order)
	for len(level) > 1 {
		var nextLevel []node
		var nextSeps []uint64
		for start := 0; start < len(level); start += perNode + 1 {
			end := start + perNode + 1
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

// check validates tree invariants; it is exported to tests via export_test.
func (t *Tree) check() error {
	type bound struct{ lo, hi uint64 } // keys in [lo, hi)
	var walk func(n node, b bound, depth int) error
	walk = func(n node, b bound, depth int) error {
		switch n := n.(type) {
		case *leaf:
			if depth != t.height {
				return fmt.Errorf("leaf at depth %d, height %d", depth, t.height)
			}
			for i, k := range n.keys {
				if k < b.lo || k >= b.hi {
					return fmt.Errorf("leaf key %d out of bound [%d,%d)", k, b.lo, b.hi)
				}
				if i > 0 && n.keys[i-1] >= k {
					return fmt.Errorf("leaf keys not ascending at %d", k)
				}
			}
		case *internal:
			if len(n.kids) != len(n.keys)+1 {
				return fmt.Errorf("internal fanout mismatch: %d kids, %d keys", len(n.kids), len(n.keys))
			}
			for i, k := range n.keys {
				if k < b.lo || k >= b.hi {
					return fmt.Errorf("internal key %d out of bound [%d,%d)", k, b.lo, b.hi)
				}
				if i > 0 && n.keys[i-1] >= k {
					return fmt.Errorf("internal keys not ascending at %d", k)
				}
			}
			for i, kid := range n.kids {
				lo, hi := b.lo, b.hi
				if i > 0 {
					lo = n.keys[i-1]
				}
				if i < len(n.keys) {
					hi = n.keys[i]
				}
				if err := walk(kid, bound{lo, hi}, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(t.root, bound{0, ^uint64(0)}, 1)
}
