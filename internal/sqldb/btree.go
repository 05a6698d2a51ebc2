package sqldb

import "pyxis/internal/val"

// btree is an in-memory B+tree mapping composite val.Value keys to
// int payloads (row slots). Leaves are linked for range scans. It
// backs both primary-key and secondary indexes; non-unique indexes
// append the row slot to the key to disambiguate duplicates.
//
// Concurrency contract: the tree has no internal synchronization — it
// is guarded by the owning table's latch in the engine's latch
// hierarchy (db.go): Insert and Delete run only under the table latch
// held exclusively; Get, Scan, AppendRange and Len are safe under the
// shared latch (nothing mutates node structure while any shared holder
// exists).
// The latch audit test enforces that every access site lives in a
// function with a documented latch story.
type btree struct {
	root   *bnode
	order  int // max keys per node
	height int
	size   int
}

type bnode struct {
	leaf     bool
	keys     [][]val.Value
	children []*bnode // internal nodes: len(keys)+1
	vals     []int    // leaf nodes: parallel to keys
	next     *bnode   // leaf chain
}

const defaultOrder = 64

func newBTree() *btree {
	return &btree{root: &bnode{leaf: true}, order: defaultOrder, height: 1}
}

// cmpKey compares composite keys lexicographically. A shorter key that
// is a prefix of a longer one compares equal — this gives prefix scans
// for free (search with a partial key finds the first row with that
// prefix).
func cmpKey(a, b []val.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x, y := &a[i], &b[i]
		if x.K == val.Int && y.K == val.Int {
			// val.Compare's integer rule, without copying two Values
			// into a call: most key columns are ints.
			if x.I != y.I {
				if x.I < y.I {
					return -1
				}
				return 1
			}
			continue
		}
		if c := val.Compare(*x, *y); c != 0 {
			return c
		}
	}
	return 0
}

// cmpKeyStrict orders keys with shorter-prefix-first tiebreak; used
// internally so equal-prefix keys of different lengths order stably.
func cmpKeyStrict(a, b []val.Value) int {
	if c := cmpKey(a, b); c != 0 {
		return c
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// search returns the index of the first key in n.keys >= key.
func (n *bnode) search(key []val.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpKeyStrict(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the payload for an exactly matching key.
func (t *btree) Get(key []val.Value) (int, bool) {
	n := t.root
	for !n.leaf {
		i := n.search(key)
		if i < len(n.keys) && cmpKeyStrict(n.keys[i], key) == 0 {
			i++
		}
		n = n.children[i]
	}
	i := n.search(key)
	if i < len(n.keys) && cmpKeyStrict(n.keys[i], key) == 0 {
		return n.vals[i], true
	}
	return 0, false
}

// Insert adds key→v. Returns false if the exact key already exists.
func (t *btree) Insert(key []val.Value, v int) bool {
	nk, nc, ok := t.insert(t.root, key, v)
	if !ok {
		return false
	}
	if nc != nil {
		newRoot := &bnode{
			keys:     [][]val.Value{nk},
			children: []*bnode{t.root, nc},
		}
		t.root = newRoot
		t.height++
	}
	t.size++
	return true
}

// insert descends into n; on child split returns the separator key and
// new right sibling.
func (t *btree) insert(n *bnode, key []val.Value, v int) ([]val.Value, *bnode, bool) {
	if n.leaf {
		i := n.search(key)
		if i < len(n.keys) && cmpKeyStrict(n.keys[i], key) == 0 {
			return nil, nil, false
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		if len(n.keys) > t.order {
			return t.splitLeaf(n)
		}
		return nil, nil, true
	}
	i := n.search(key)
	if i < len(n.keys) && cmpKeyStrict(n.keys[i], key) == 0 {
		i++
	}
	sk, sc, ok := t.insert(n.children[i], key, v)
	if !ok {
		return nil, nil, false
	}
	if sc != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sk
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = sc
		if len(n.keys) > t.order {
			return t.splitInternal(n)
		}
	}
	return nil, nil, true
}

func (t *btree) splitLeaf(n *bnode) ([]val.Value, *bnode, bool) {
	mid := len(n.keys) / 2
	right := &bnode{leaf: true,
		keys: append([][]val.Value{}, n.keys[mid:]...),
		vals: append([]int{}, n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = right
	return right.keys[0], right, true
}

func (t *btree) splitInternal(n *bnode) ([]val.Value, *bnode, bool) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &bnode{
		keys:     append([][]val.Value{}, n.keys[mid+1:]...),
		children: append([]*bnode{}, n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right, true
}

// Delete removes an exact key. It uses lazy deletion (no rebalancing):
// leaves may underflow, which is acceptable for an in-memory engine
// whose workloads are insert/lookup heavy.
func (t *btree) Delete(key []val.Value) bool {
	n := t.root
	for !n.leaf {
		i := n.search(key)
		if i < len(n.keys) && cmpKeyStrict(n.keys[i], key) == 0 {
			i++
		}
		n = n.children[i]
	}
	i := n.search(key)
	if i < len(n.keys) && cmpKeyStrict(n.keys[i], key) == 0 {
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		t.size--
		return true
	}
	return false
}

// seek returns the leaf position of the first key >= lo in tree order
// (the first leaf's start when lo is nil): a root-to-leaf descent plus
// a binary search inside the leaf. The position may be one past the
// leaf's last key; walkers step to n.next there.
func (t *btree) seek(lo []val.Value) (*bnode, int) {
	n := t.root
	for !n.leaf {
		i := 0
		if lo != nil {
			i = n.search(lo)
		}
		n = n.children[i]
	}
	if lo == nil {
		return n, 0
	}
	return n, n.search(lo)
}

// Scan visits entries with lo <= key <= hi in order (nil bounds are
// open). Prefix keys work as bounds: Scan([w,d], [w,d]) visits every
// key beginning with (w, d). The visit function returns false to stop.
func (t *btree) Scan(lo, hi []val.Value, visit func(key []val.Value, v int) bool) {
	n, i := t.seek(lo)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if hi != nil && cmpKey(n.keys[i], hi) > 0 {
				return
			}
			if !visit(n.keys[i], n.vals[i]) {
				return
			}
		}
		n, i = n.next, 0
	}
}

// AppendRange appends to dst the payload of every entry with
// lo <= key <= hi, in key order — Scan(lo, hi) without the callback, for
// the executor's index probes. Both bounds compare as prefixes, so
// AppendRange(p, p) is every key beginning with p and an empty bound is
// open. It allocates only when dst grows.
func (t *btree) AppendRange(dst []int, lo, hi []val.Value) []int {
	n, i := t.seek(lo)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if cmpKey(n.keys[i], hi) > 0 {
				return dst
			}
			dst = append(dst, n.vals[i])
		}
		n, i = n.next, 0
	}
	return dst
}

// Len returns the number of entries.
func (t *btree) Len() int { return t.size }
