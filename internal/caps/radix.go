package caps

// Radix is a 64-ary radix tree from page index to a value, used both for the
// runtime page set of a PMO and for the checkpointed page structures of the
// backup tree (Figure 6). The depth grows on demand; lookups and inserts
// cost O(depth) with depth = ceil(log64(maxIndex+1)).
//
// The tree exposes the node count so the checkpoint cost model can charge
// per-node work, matching the paper's observation that full PMO checkpoints
// are dominated by radix-tree construction.
type Radix[T any] struct {
	root   *radixNode[T]
	depth  int // levels below the root; 0 means root holds leaves directly
	count  int // number of present leaves
	nNodes int // number of allocated nodes (incl. root)
}

const radixFanout = 64

type radixNode[T any] struct {
	children [radixFanout]*radixNode[T]
	leaves   []T    // only at depth 0, lazily sized to fanout
	present  uint64 // bitmap of present leaves (depth 0)
}

// Len returns the number of present entries.
func (r *Radix[T]) Len() int { return r.count }

// Nodes returns the number of allocated tree nodes (for cost accounting).
func (r *Radix[T]) Nodes() int { return r.nNodes }

func capacityAtDepth(depth int) uint64 {
	c := uint64(radixFanout)
	for i := 0; i < depth; i++ {
		c *= radixFanout
	}
	return c
}

// Get returns the value at index idx and whether it is present.
func (r *Radix[T]) Get(idx uint64) (T, bool) {
	var zero T
	if r.root == nil || idx >= capacityAtDepth(r.depth) {
		return zero, false
	}
	n := r.root
	for level := r.depth; level > 0; level-- {
		shift := uint(6 * level)
		slot := (idx >> shift) % radixFanout
		n = n.children[slot]
		if n == nil {
			return zero, false
		}
	}
	slot := idx % radixFanout
	if n.present&(1<<slot) == 0 {
		return zero, false
	}
	return n.leaves[slot], true
}

// Set stores v at index idx, growing the tree as needed. It reports whether
// the entry was newly created (false if it replaced an existing value).
func (r *Radix[T]) Set(idx uint64, v T) bool {
	leaf, isNew := r.Put(idx)
	*leaf = v
	return isNew
}

// Put makes idx present, growing the tree as needed, and returns its leaf
// for the caller to store into, and whether the entry is new. A new entry's
// leaf holds the value the entry had when a Reset removed it, or the zero
// value.
func (r *Radix[T]) Put(idx uint64) (leaf *T, isNew bool) {
	if r.root == nil {
		r.root = &radixNode[T]{}
		r.nNodes = 1
	}
	for idx >= capacityAtDepth(r.depth) {
		// Grow upward: the old root becomes child 0 of a new root.
		newRoot := &radixNode[T]{}
		newRoot.children[0] = r.root
		// If the old root held leaves, it stays a leaf node one
		// level down — the child pointer layout already handles it.
		r.root = newRoot
		r.depth++
		r.nNodes++
	}
	n := r.root
	for level := r.depth; level > 0; level-- {
		shift := uint(6 * level)
		slot := (idx >> shift) % radixFanout
		if n.children[slot] == nil {
			n.children[slot] = &radixNode[T]{}
			r.nNodes++
		}
		n = n.children[slot]
	}
	slot := idx % radixFanout
	if n.leaves == nil {
		n.leaves = make([]T, radixFanout)
	}
	isNew = n.present&(1<<slot) == 0
	n.present |= 1 << slot
	if isNew {
		r.count++
	}
	return &n.leaves[slot], isNew
}

// Reset removes every entry but keeps the nodes, and in each leaf the value
// it held, for Put to hand back. Nodes is unchanged, so a count that is
// charged must never be read from a tree that was Reset.
func (r *Radix[T]) Reset() {
	if r.root != nil {
		resetNode(r.root, r.depth)
	}
	r.count = 0
}

func resetNode[T any](n *radixNode[T], level int) {
	if level == 0 {
		n.present = 0
		return
	}
	for _, c := range n.children {
		if c != nil {
			resetNode(c, level-1)
		}
	}
}

// Delete removes the entry at idx and reports whether it was present.
// Interior nodes are not pruned (matching kernel radix trees, which keep the
// skeleton for reuse — the paper's incremental checkpoints rely on reusing
// the tree across rounds).
func (r *Radix[T]) Delete(idx uint64) bool {
	if r.root == nil || idx >= capacityAtDepth(r.depth) {
		return false
	}
	n := r.root
	for level := r.depth; level > 0; level-- {
		shift := uint(6 * level)
		slot := (idx >> shift) % radixFanout
		n = n.children[slot]
		if n == nil {
			return false
		}
	}
	slot := idx % radixFanout
	if n.present&(1<<slot) == 0 {
		return false
	}
	var zero T
	n.leaves[slot] = zero
	n.present &^= 1 << slot
	r.count--
	return true
}

// Walk visits every present entry in ascending index order. The callback
// returns false to stop the walk early.
func (r *Radix[T]) Walk(fn func(idx uint64, v T) bool) {
	if r.root == nil {
		return
	}
	r.walkNode(r.root, r.depth, 0, fn)
}

func (r *Radix[T]) walkNode(n *radixNode[T], level int, prefix uint64, fn func(uint64, T) bool) bool {
	if level == 0 {
		for slot := uint64(0); slot < radixFanout; slot++ {
			if n.present&(1<<slot) != 0 {
				if !fn(prefix+slot, n.leaves[slot]) {
					return false
				}
			}
		}
		return true
	}
	for slot := uint64(0); slot < radixFanout; slot++ {
		if c := n.children[slot]; c != nil {
			base := prefix + slot*capacityAtDepth(level-1)
			if !r.walkNode(c, level-1, base, fn) {
				return false
			}
		}
	}
	return true
}
