package sqldb

import (
	"slices"

	"pyxis/internal/val"
)

// btree is an in-memory B+tree mapping composite val.Value keys to
// int payloads (row slots). Leaves are linked for range scans. It
// backs both primary-key and secondary indexes; non-unique indexes
// append the row slot to the key to disambiguate duplicates.
//
// Every key of a tree has the same width, and a node stores its keys
// inline, back to back in one slice: key i is keys[i*w:(i+1)*w]. An
// entry costs no allocation of its own, and a search reads the keys
// it compares where the node already is. Insert copies the caller's
// key in; slots a delete or a split vacates are cleared, so a node
// keeps no string of a key it no longer holds.
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
	width  int // values per key
	order  int // max keys per node
	height int
	size   int
}

type bnode struct {
	leaf     bool
	keys     []val.Value // width values per key, key after key
	children []*bnode    // internal nodes: one more than keys
	vals     []int       // leaf nodes: one per key
	next     *bnode      // leaf chain
	// last is the position of the leaf's latest insert: an insert
	// right after it continues an ascending run.
	last int
}

const defaultOrder = 64

// newBTree returns an empty tree whose keys are width values each.
func newBTree(width int) *btree {
	return &btree{root: &bnode{leaf: true}, width: width, order: defaultOrder, height: 1}
}

// cmpKey compares composite keys lexicographically. A shorter key that
// is a prefix of a longer one compares equal — this gives prefix scans
// for free (search with a partial key finds the first row with that
// prefix).
func cmpKey(a, b []val.Value) int {
	n := min(len(a), len(b))
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

// key returns n's i-th key, capped so an append to it cannot reach the
// next one.
func (n *bnode) key(i, w int) []val.Value {
	return n.keys[i*w : (i+1)*w : (i+1)*w]
}

// search returns the index of the first of n's nk keys >= key.
func (n *bnode) search(key []val.Value, w, nk int) int {
	lo, hi := 0, nk
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpKeyStrict(n.keys[mid*w:mid*w+w], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// child returns the index of the child of internal node n that holds
// key: the number of separators <= key, since a separator is its right
// subtree's first key.
func (n *bnode) child(key []val.Value, w int) int {
	lo, hi := 0, len(n.children)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpKeyStrict(n.keys[mid*w:mid*w+w], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the leaf that holds key and key's position in it, or -1
// when the tree has no such key.
func (t *btree) find(key []val.Value) (*bnode, int) {
	n, w := t.root, t.width
	for !n.leaf {
		n = n.children[n.child(key, w)]
	}
	nk := len(n.vals)
	if i := n.search(key, w, nk); i < nk && cmpKeyStrict(n.keys[i*w:i*w+w], key) == 0 {
		return n, i
	}
	return n, -1
}

// Get returns the payload for an exactly matching key.
func (t *btree) Get(key []val.Value) (int, bool) {
	if n, i := t.find(key); i >= 0 {
		return n.vals[i], true
	}
	return 0, false
}

// Insert copies key, which must be the tree's width, into the tree
// with payload v. It returns false, and changes nothing, if the exact
// key already exists.
func (t *btree) Insert(key []val.Value, v int) bool {
	if len(key) != t.width {
		panic("sqldb: btree key of the wrong width")
	}
	sep, right, ok := t.insert(t.root, key, v)
	if !ok {
		return false
	}
	if right != nil {
		root := &bnode{
			keys:     slices.Clone(sep),
			children: []*bnode{t.root, right},
		}
		t.root = root
		t.height++
	}
	t.size++
	return true
}

// insert descends into n; on a split of n it returns the separator and
// n's new right sibling. The separator may alias the sibling's keys:
// the caller copies it before the tree changes again.
func (t *btree) insert(n *bnode, key []val.Value, v int) ([]val.Value, *bnode, bool) {
	w := t.width
	if n.leaf {
		nk := len(n.vals)
		i := n.search(key, w, nk)
		if i < nk && cmpKeyStrict(n.keys[i*w:i*w+w], key) == 0 {
			return nil, nil, false
		}
		n.keys = slices.Insert(n.keys, i*w, key...)
		n.vals = slices.Insert(n.vals, i, v)
		ascending := i > 0 && n.last == i-1
		n.last = i
		if nk+1 > t.order {
			// An ascending run splits where it is, so the leaf it leaves
			// behind is full: at the new key when it is the leaf's last,
			// else after it. Keys past the run (another stream's) then
			// move right once, not at every split.
			at := (nk + 1) / 2
			switch {
			case !ascending:
			case i == nk:
				at = i
			default:
				at = i + 1
			}
			return t.splitLeaf(n, at)
		}
		return nil, nil, true
	}
	i := n.child(key, w)
	sep, right, ok := t.insert(n.children[i], key, v)
	if !ok || right == nil {
		return nil, nil, ok
	}
	n.keys = slices.Insert(n.keys, i*w, sep...)
	n.children = slices.Insert(n.children, i+1, right)
	if len(n.children)-1 > t.order {
		return t.splitInternal(n)
	}
	return nil, nil, true
}

// splitLeaf moves n's keys from position at on into a new right
// sibling and returns the sibling's first key as the separator. Each
// half has room for a full node, so neither grows again before it
// splits.
func (t *btree) splitLeaf(n *bnode, at int) ([]val.Value, *bnode, bool) {
	w, nk := t.width, len(n.vals)
	right := &bnode{leaf: true,
		keys: make([]val.Value, (nk-at)*w, (t.order+1)*w),
		vals: make([]int, nk-at, t.order+1),
		next: n.next,
		last: n.last - at, // the latest insert, if it moved right
	}
	copy(right.keys, n.keys[at*w:])
	copy(right.vals, n.vals[at:])
	clear(n.keys[at*w:])
	n.keys = n.keys[:at*w]
	n.vals = n.vals[:at]
	n.next = right
	return right.keys[:w], right, true
}

// splitInternal moves the keys after n's middle one, and their
// children, into a new right sibling, and returns the middle key (a
// copy: its slot is cleared) as the separator.
func (t *btree) splitInternal(n *bnode) ([]val.Value, *bnode, bool) {
	w, nk := t.width, len(n.children)-1
	mid := nk / 2
	sep := slices.Clone(n.key(mid, w))
	right := &bnode{
		keys:     slices.Clone(n.keys[(mid+1)*w:]),
		children: slices.Clone(n.children[mid+1:]),
	}
	clear(n.keys[mid*w:])
	clear(n.children[mid+1:])
	n.keys = n.keys[:mid*w]
	n.children = n.children[:mid+1]
	return sep, right, true
}

// Delete removes an exact key. It uses lazy deletion (no rebalancing):
// leaves may underflow, which is acceptable for an in-memory engine
// whose workloads are insert/lookup heavy.
func (t *btree) Delete(key []val.Value) bool {
	n, i := t.find(key)
	if i < 0 {
		return false
	}
	// slices.Delete clears the slots it vacates.
	n.keys = slices.Delete(n.keys, i*t.width, (i+1)*t.width)
	n.vals = slices.Delete(n.vals, i, i+1)
	t.size--
	return true
}

// seek returns the leaf position of the first key >= lo in tree order
// (the first leaf's start when lo is nil): a root-to-leaf descent plus
// a binary search inside the leaf. The position may be one past the
// leaf's last key; walkers step to n.next there.
func (t *btree) seek(lo []val.Value) (*bnode, int) {
	n, w := t.root, t.width
	for !n.leaf {
		i := 0
		if lo != nil {
			i = n.search(lo, w, len(n.children)-1)
		}
		n = n.children[i]
	}
	if lo == nil {
		return n, 0
	}
	return n, n.search(lo, w, len(n.vals))
}

// Scan visits entries with lo <= key <= hi in order (nil bounds are
// open). Prefix keys work as bounds: Scan([w,d], [w,d]) visits every
// key beginning with (w, d). The visit function returns false to stop.
// The key it is passed is the tree's own memory, valid only during the
// visit.
func (t *btree) Scan(lo, hi []val.Value, visit func(key []val.Value, v int) bool) {
	n, i := t.seek(lo)
	w := t.width
	for n != nil {
		for nk := len(n.vals); i < nk; i++ {
			k := n.key(i, w)
			if hi != nil && cmpKey(k, hi) > 0 {
				return
			}
			if !visit(k, n.vals[i]) {
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
	w := t.width
	for n != nil {
		for nk := len(n.vals); i < nk; i++ {
			if cmpKey(n.keys[i*w:i*w+w], hi) > 0 {
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
