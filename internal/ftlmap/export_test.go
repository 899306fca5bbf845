package ftlmap

import "fmt"

// Only tests read a tree's shape and audit its invariants.

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Nodes returns the number of leaf and internal nodes.
func (t *Tree) Nodes() (leaves, internals int) { return t.leaves, t.internals }

// Check validates the tree's ordering and depth invariants.
func (t *Tree) Check() error {
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
