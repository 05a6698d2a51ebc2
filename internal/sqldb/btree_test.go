package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pyxis/internal/val"
)

// refEntry is one entry of the sorted reference FuzzBTree checks the
// tree against.
type refEntry struct {
	key []val.Value
	v   int
}

// refCmp orders keys column by column with val.Compare alone, and a
// shorter key first on a tie: written apart from cmpKey so a fault in
// the tree's comparator shows.
func refCmp(a, b []val.Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := val.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// refPrefixCmp compares key with bound as cmpKey does: a bound that is
// a prefix of key compares equal to it.
func refPrefixCmp(key, bound []val.Value) int {
	return refCmp(key[:min(len(key), len(bound))], bound)
}

// checkTree verifies the tree's node invariants: every node's keys are
// sorted, its slices agree on its key count and nothing is left
// reachable past them; internal nodes have one more child than keys
// and separators that bound their subtrees; every leaf sits at the
// tree's height; and the leaf chain visits the leaves in key order and
// holds size keys.
func checkTree(t *testing.T, tr *btree) {
	t.Helper()
	w := tr.width
	var leaves []*bnode
	var walk func(n *bnode, depth int, lo, hi []val.Value)
	walk = func(n *bnode, depth int, lo, hi []val.Value) {
		if len(n.keys)%w != 0 {
			t.Fatalf("node holds %d values, not a multiple of width %d", len(n.keys), w)
		}
		nk := len(n.keys) / w
		for _, v := range n.keys[len(n.keys):cap(n.keys)] {
			if v != (val.Value{}) {
				t.Fatalf("a vacated key slot still holds %v", v)
			}
		}
		for i := 0; i < nk; i++ {
			k := n.keys[i*w : (i+1)*w]
			if i > 0 && refCmp(n.keys[(i-1)*w:i*w], k) >= 0 {
				t.Fatalf("node keys out of order: %v then %v", n.keys[(i-1)*w:i*w], k)
			}
			if (lo != nil && refCmp(k, lo) < 0) || (hi != nil && refCmp(k, hi) >= 0) {
				t.Fatalf("key %v outside its subtree's bounds [%v, %v)", k, lo, hi)
			}
		}
		if n.leaf {
			if len(n.vals) != nk || n.children != nil {
				t.Fatalf("leaf with %d keys has %d payloads and %d children", nk, len(n.vals), len(n.children))
			}
			if depth != tr.height {
				t.Fatalf("leaf at depth %d, tree height %d", depth, tr.height)
			}
			leaves = append(leaves, n)
			return
		}
		if len(n.children) != nk+1 || n.vals != nil {
			t.Fatalf("internal node with %d keys has %d children and %d payloads", nk, len(n.children), len(n.vals))
		}
		if nk > tr.order {
			t.Fatalf("internal node holds %d keys, order %d", nk, tr.order)
		}
		for _, c := range n.children[len(n.children):cap(n.children)] {
			if c != nil {
				t.Fatal("a vacated child slot still holds a node")
			}
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[(i-1)*w : i*w]
			}
			if i < nk {
				chi = n.keys[i*w : (i+1)*w]
			}
			walk(c, depth+1, clo, chi)
		}
	}
	walk(tr.root, 1, nil, nil)
	n, size := leaves[0], 0
	var prev []val.Value
	for i := 0; n != nil; i, n = i+1, n.next {
		if i >= len(leaves) || leaves[i] != n {
			t.Fatalf("leaf chain's leaf %d is not the tree's", i)
		}
		if len(n.vals) > tr.order {
			t.Fatalf("leaf holds %d keys, order %d", len(n.vals), tr.order)
		}
		for j := range n.vals {
			k := n.keys[j*w : (j+1)*w]
			if prev != nil && refCmp(prev, k) >= 0 {
				t.Fatalf("leaf chain out of order: %v then %v", prev, k)
			}
			prev = k
			size++
		}
	}
	if size != tr.Len() {
		t.Fatalf("leaf chain holds %d keys, Len %d", size, tr.Len())
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, zeros once it
// runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// FuzzBTree drives a small-order tree with keys of width 1 to 4 (one
// column a string, or all ints) through random inserts, ascending runs
// (one stream, or several interleaved as TPC-C's districts insert
// orders), deletes, Gets and prefix AppendRange/Scan walks, and checks
// every answer against a sorted reference and the tree's invariants
// after every operation.
func FuzzBTree(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 64, 300, 1200} {
		for shape := 0; shape < 8; shape++ {
			seed := make([]byte, n)
			rng.Read(seed)
			seed[0], seed[1] = byte(shape), byte(rng.Intn(6))
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		shape := in.next()
		w := 1 + shape%4
		strCol := -1 // every column an int
		if shape/4%2 == 1 {
			strCol = (shape / 8) % w
		}
		tr := newBTree(w)
		tr.order = 3 + in.next()%6
		var ref []refEntry
		col := func(c, x int) val.Value {
			if c == strCol {
				return val.StrV(fmt.Sprintf("s%04d", x))
			}
			return val.IntV(int64(x))
		}
		keyOf := func(xs ...int) []val.Value {
			k := make([]val.Value, w)
			for c := range k {
				k[c] = col(c, xs[c%len(xs)])
			}
			return k
		}
		randKey := func() []val.Value {
			k := make([]val.Value, w)
			for c := range k {
				k[c] = col(c, in.next()%6)
			}
			return k
		}
		refFind := func(key []val.Value) (int, bool) {
			return slices.BinarySearchFunc(ref, key, func(e refEntry, k []val.Value) int { return refCmp(e.key, k) })
		}
		payload := 0
		insert := func(key []val.Value) {
			payload++
			i, found := refFind(key)
			if got := tr.Insert(key, payload); got == found {
				t.Fatalf("Insert(%v) = %v with the key present: %v", key, got, found)
			}
			if !found {
				ref = slices.Insert(ref, i, refEntry{key, payload})
			}
		}
		// prefix returns a random prefix of a random key, sometimes nil.
		prefix := func() []val.Value {
			p := in.next() % (w + 2)
			if p > w {
				return nil
			}
			return randKey()[:p]
		}
		for ops := 0; len(in) > 0 && ops < 400; ops++ {
			switch op := in.next() % 8; op {
			case 0, 1:
				insert(randKey())
			case 2: // one ascending run in the last column
				base, n := in.next(), 1+in.next()%24
				head := randKey()
				for x := base; x < base+n; x++ {
					k := slices.Clone(head)
					k[w-1] = col(w-1, x)
					insert(k)
				}
			case 3: // interleaved ascending streams, one per first column
				streams, n := 1+in.next()%5, 1+in.next()%16
				base := in.next()
				for x := base; x < base+n; x++ {
					for s := 0; s < streams; s++ {
						if w == 1 {
							insert(keyOf(s*1000 + x))
						} else {
							xs := make([]int, w)
							xs[0], xs[w-1] = s, x
							insert(keyOf(xs...))
						}
					}
				}
			case 4:
				key := randKey()
				if len(ref) > 0 && in.next()%2 == 0 {
					key = slices.Clone(ref[in.next()%len(ref)].key)
				}
				i, found := refFind(key)
				if got := tr.Delete(key); got != found {
					t.Fatalf("Delete(%v) = %v with the key present: %v", key, got, found)
				}
				if found {
					ref = slices.Delete(ref, i, i+1)
				}
			case 5:
				key := randKey()
				i, found := refFind(key)
				v, ok := tr.Get(key)
				if ok != found || (ok && v != ref[i].v) {
					t.Fatalf("Get(%v) = %d,%v; reference %v", key, v, ok, found)
				}
			case 6, 7:
				lo, hi := prefix(), prefix()
				if in.next()%2 == 0 {
					hi = lo
				}
				var want []int
				for _, e := range ref {
					if (lo == nil || refPrefixCmp(e.key, lo) >= 0) && (hi == nil || refPrefixCmp(e.key, hi) <= 0) {
						want = append(want, e.v)
					}
				}
				var got []int
				if op == 6 && hi != nil {
					got = tr.AppendRange(nil, lo, hi)
				} else {
					stop := len(want)
					if in.next()%2 == 0 && stop > 0 {
						stop = 1 + in.next()%stop
						want = want[:stop]
					}
					tr.Scan(lo, hi, func(_ []val.Value, v int) bool {
						got = append(got, v)
						return len(got) < stop
					})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("walk [%v, %v] = %v, reference %v", lo, hi, got, want)
				}
			}
			checkTree(t, tr)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len %d, reference %d", tr.Len(), len(ref))
		}
		i := 0
		tr.Scan(nil, nil, func(key []val.Value, v int) bool {
			if refCmp(key, ref[i].key) != 0 || v != ref[i].v {
				t.Fatalf("entry %d is %v→%d, reference %v→%d", i, key, v, ref[i].key, ref[i].v)
			}
			i++
			return true
		})
	})
}

// TestBTreeInsertCopiesKey reuses one key buffer for every Insert and
// overwrites it after each, as the engine does with its stack buffers:
// the tree must hold what each key was when it went in.
func TestBTreeInsertCopiesKey(t *testing.T) {
	tr := newBTree(2)
	tr.order = 4
	buf := make([]val.Value, 2)
	const n = 200
	for i := 0; i < n; i++ {
		buf[0], buf[1] = val.IntV(int64(i%7)), val.StrV(fmt.Sprintf("k%03d", i))
		if !tr.Insert(buf, i) {
			t.Fatalf("insert %d refused", i)
		}
		buf[0], buf[1] = val.IntV(-1), val.StrV("scribbled")
	}
	checkTree(t, tr)
	for i := 0; i < n; i++ {
		key := []val.Value{val.IntV(int64(i % 7)), val.StrV(fmt.Sprintf("k%03d", i))}
		if v, ok := tr.Get(key); !ok || v != i {
			t.Fatalf("Get(%v) = %d,%v, want %d", key, v, ok, i)
		}
	}
	if _, ok := tr.Get([]val.Value{val.IntV(-1), val.StrV("scribbled")}); ok {
		t.Fatal("the scribbled buffer is a key of the tree")
	}
	// A visitor that appends to the key it was passed writes into its
	// own copy, not over the next key.
	tr.Scan(nil, nil, func(key []val.Value, _ int) bool {
		_ = append(key, val.StrV("appended"))
		return true
	})
	checkTree(t, tr)
}

// TestBTreeAscendingSplitsFill pins what an ascending split buys: 40
// interleaved ascending streams, TPC-C's districts inserting orders
// (one key an order) and order lines (ten), fill the leaves they leave
// behind to the tree's order; split at the middle they would be half
// full.
func TestBTreeAscendingSplitsFill(t *testing.T) {
	const streams, orders = 40, 160
	for _, lines := range []int{1, 10} {
		tr := newBTree(3)
		for o := 0; o < orders; o++ {
			for d := 0; d < streams; d++ {
				for n := 0; n < lines; n++ {
					tr.Insert([]val.Value{val.IntV(int64(d)), val.IntV(int64(o)), val.IntV(int64(n))}, 0)
				}
			}
		}
		checkTree(t, tr)
		leaves := 0
		for n, _ := tr.seek(nil); n != nil; n = n.next {
			leaves++
		}
		// Each stream's last leaf may be part-filled, and its first may be
		// one it shared with its neighbours; every other is full.
		if most := tr.Len()/tr.order + 2*streams; leaves > most {
			t.Errorf("%d lines an order: %d entries in %d leaves of order %d, want <= %d", lines, tr.Len(), leaves, tr.order, most)
		} else {
			t.Logf("%d lines an order: %d entries in %d leaves of order %d (bound %d)", lines, tr.Len(), leaves, tr.order, most)
		}
	}
}
