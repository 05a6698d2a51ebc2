package sqldb

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"pyxis/internal/val"
)

// Layer benchmarks for the engine, one per step a transaction pays
// for. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/sqldb/
//
// TestAllocCeilings pins the allocation counts in tier-1, where no
// clock is needed to see a regression.

const benchRows = 10000

func intv(i int) val.Value { return val.IntV(int64(i)) }

// benchDB loads stock(s_w_id, s_i_id | s_quantity, s_ytd, s_order_cnt)
// and item(i_id | i_name, i_price), TPC-C's shapes in this repository,
// plus order_line for inserts with nidx secondary indexes on it.
func benchDB(tb testing.TB, nidx int) (*DB, *Session) {
	tb.Helper()
	db := Open()
	s := db.NewSession()
	for _, ddl := range []string{
		"CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd DOUBLE, s_order_cnt INT, PRIMARY KEY (s_w_id, s_i_id))",
		"CREATE TABLE item (i_id INT PRIMARY KEY, i_name VARCHAR(24), i_price DOUBLE)",
		"CREATE TABLE order_line (ol_w_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_amount DOUBLE, PRIMARY KEY (ol_w_id, ol_o_id, ol_number))",
	} {
		if _, err := s.Exec(ddl); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < nidx; i++ {
		col := []string{"ol_i_id", "ol_amount"}[i]
		if _, err := s.Exec(fmt.Sprintf("CREATE INDEX ol_ix%d ON order_line (%s)", i, col)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < benchRows; i++ {
		if _, err := s.Exec("INSERT INTO stock VALUES (1, ?, 50, 0.0, 0)", intv(i)); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Exec("INSERT INTO item VALUES (?, 'item', 9.5)", intv(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return db, s
}

func prepare(tb testing.TB, s *Session, sql string) SQLStmt {
	tb.Helper()
	st, err := s.Prepare(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

const (
	selectPK     = "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?"
	updateNonKey = "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?"
	insertLine   = "INSERT INTO order_line VALUES (1, ?, 1, ?, 12.5)"
	joinProbe    = "SELECT i_price, s_quantity FROM item, stock WHERE i_id = ? AND s_w_id = 1 AND s_i_id = i_id"
)

func BenchmarkPreparedSelectPK(b *testing.B) {
	_, s := benchDB(b, 0)
	st := prepare(b, s, selectPK)
	var rs ResultSet
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := s.QueryInto(&rs, st, intv(1), intv(i%benchRows)); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkPreparedUpdateNonKey(b *testing.B) {
	_, s := benchDB(b, 0)
	st := prepare(b, s, updateNonKey)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := s.ExecParsed(st, intv(50+i%40), intv(1), intv(1), intv(i%benchRows)); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkPreparedInsert(b *testing.B) {
	for nidx := 0; nidx <= 2; nidx++ {
		b.Run(fmt.Sprintf("indexes=%d", nidx), func(b *testing.B) {
			_, s := benchDB(b, nidx)
			st := prepare(b, s, insertLine)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := s.ExecParsed(st, intv(i), intv(i%benchRows)); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

func BenchmarkJoinProbe(b *testing.B) {
	_, s := benchDB(b, 0)
	st := prepare(b, s, joinProbe)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		rs, err := s.QueryParsed(st, intv(i%benchRows))
		if err != nil || len(rs.Rows) != 1 {
			b.Fatalf("join probe: %v rows, err %v", rs, err)
		}
		i++
	}
}

// tpcwDB loads the TPC-W bookstore's item and author tables the way
// internal/bench's TPCWConfig.Load does (that package imports this one):
// items carry a title, an author, a publication date and a sales count,
// indexed on the last two; 100 authors.
func tpcwDB(tb testing.TB, items int) *Session {
	tb.Helper()
	s := Open().NewSession()
	for _, ddl := range []string{
		"CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60), i_a_id INT, i_pub_date INT, i_price DOUBLE, i_total_sold INT)",
		"CREATE TABLE author (a_id INT PRIMARY KEY, a_name VARCHAR(40))",
		"CREATE INDEX idx_item_date ON item (i_pub_date)",
		"CREATE INDEX idx_item_sold ON item (i_total_sold)",
	} {
		if _, err := s.Exec(ddl); err != nil {
			tb.Fatal(err)
		}
	}
	for a := 1; a <= 100; a++ {
		if _, err := s.Exec("INSERT INTO author VALUES (?, ?)", intv(a), val.StrV(fmt.Sprintf("author-%d", a))); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 1; i <= items; i++ {
		if _, err := s.Exec("INSERT INTO item VALUES (?, ?, ?, ?, ?, ?)", intv(i), val.StrV(fmt.Sprintf("book title %d", i)),
			intv(i%100+1), intv(20000000+i%3650), val.DoubleV(5+float64(i%40)), intv((i*37)%500)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// The TPC-W browsing mix's read path: home's promotion list (a PK
// range), newProducts (a secondary-index range, then the top 20),
// bestSellers' top 20 over every item and its per-row author join
// (item probed first, then author by key), searchByTitle's LIKE scan
// and top 20 (111 titles match), and a LIKE scan returning 10 rows.
const (
	homeRange     = "SELECT i_id, i_title FROM item WHERE i_id <= 5"
	newProducts   = "SELECT i_id, i_title FROM item WHERE i_pub_date >= ? ORDER BY i_pub_date DESC LIMIT 20"
	bestSellers   = "SELECT i_id, i_title, i_total_sold FROM item ORDER BY i_total_sold DESC LIMIT 20"
	authorJoin    = "SELECT a_name FROM author, item WHERE item.i_id = ? AND a_id = i_a_id"
	searchByTitle = "SELECT i_id, i_title, i_price FROM item WHERE i_title LIKE 'book title 5%' ORDER BY i_title LIMIT 20"
	likeScan      = "SELECT i_id, i_title FROM item WHERE i_title LIKE 'book title 5_'"
)

// benchQuery times one prepared query per iteration, into one reused
// result set; arg, when set, gives the i-th iteration's parameter.
func benchQuery(b *testing.B, s *Session, sql string, wantRows int, arg func(i int) val.Value) {
	st := prepare(b, s, sql)
	var args []val.Value
	var rs ResultSet
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if arg != nil {
			args = append(args[:0], arg(i))
		}
		err := s.QueryInto(&rs, st, args...)
		if err != nil || len(rs.Rows) != wantRows {
			b.Fatalf("%s: %v rows, err %v", sql, rs, err)
		}
		i++
	}
}

func BenchmarkRangeSelect(b *testing.B) {
	s := tpcwDB(b, 1000)
	b.Run("pk", func(b *testing.B) { benchQuery(b, s, homeRange, 5, nil) })
	b.Run("index", func(b *testing.B) {
		// The 20 newest items and the 20 before them qualify.
		benchQuery(b, s, newProducts, 20, func(int) val.Value { return intv(20000000 + 1000 - 39) })
	})
}

func BenchmarkAuthorJoin(b *testing.B) {
	s := tpcwDB(b, 1000)
	benchQuery(b, s, authorJoin, 1, func(i int) val.Value { return intv(i%1000 + 1) })
}

func BenchmarkTopN(b *testing.B) {
	benchQuery(b, tpcwDB(b, 1000), bestSellers, 20, nil)
}

func BenchmarkLikeScan(b *testing.B) {
	benchQuery(b, tpcwDB(b, 1000), searchByTitle, 20, nil)
}

// BenchmarkStatement splits one point select into its steps: parsing
// the text, binding the parsed statement, and running it from the text
// (plan-cache lookup, then the cached plan) or from the prepared
// statement (the cached plan alone).
func BenchmarkStatement(b *testing.B) {
	db, s := benchDB(b, 0)
	st := prepare(b, s, selectPK)
	args := []val.Value{intv(1), intv(7)}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ParseSQL(selectPK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bind", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := db.bind(st.(dmlStmt)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.Query(selectPK, args...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.QueryParsed(st, args...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func noWait() (func(), func()) { return func() {}, func() {} }

// lockCycle returns one transaction's uncontended lock work as a
// budget-1 NewOrder does it: 20 X locks over four tables, then
// releaseAll.
func lockCycle(tb testing.TB, db *DB) func() {
	txn := db.newTxn()
	return func() {
		for i := 0; i < 20; i++ {
			key := lockKey{table: uint32(1 + i%4), slot: uint32(100 + i)}
			if wait, err := db.lm.acquire(txn, key, LockX, noWait); wait != nil || err != nil {
				tb.Fatal("uncontended acquire queued")
			}
		}
		db.lm.releaseAll(txn)
	}
}

// BenchmarkLockCycle is lockCycle: the lock table's map operations and
// stripe choice, with no wait.
func BenchmarkLockCycle(b *testing.B) {
	cycle := lockCycle(b, Open())
	b.ReportAllocs()
	for b.Loop() {
		cycle()
	}
}

func BenchmarkLockUncontended(b *testing.B) {
	db := Open()
	txn := db.newTxn()
	key := lockKey{table: 1, slot: 1}
	b.ReportAllocs()
	for b.Loop() {
		if wait, err := db.lm.acquire(txn, key, LockX, noWait); wait != nil || err != nil {
			b.Fatal("uncontended acquire queued")
		}
		db.lm.releaseAll(txn)
	}
}

// BenchmarkLockContended is the hand-over: the requester queues behind
// the holder, the holder's release grants it.
func BenchmarkLockContended(b *testing.B) {
	db := Open()
	holder, waiter := db.newTxn(), db.newTxn()
	key := lockKey{table: 1, slot: 1}
	if _, err := db.lm.acquire(holder, key, LockX, noWait); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if wait, err := db.lm.acquire(waiter, key, LockX, noWait); wait == nil || err != nil {
			b.Fatal("contended acquire did not queue")
		}
		db.lm.releaseAll(holder)
		holder, waiter = waiter, holder
	}
}

func benchTree() *btree {
	tr := newBTree(2)
	for i := 0; i < benchRows; i++ {
		tr.Insert([]val.Value{intv(1), intv(i)}, i)
	}
	return tr
}

func BenchmarkBTreeGet(b *testing.B) {
	tr := benchTree()
	key := []val.Value{intv(1), intv(0)}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		key[1].I = int64(i % benchRows)
		if _, ok := tr.Get(key); !ok {
			b.Fatal("missing key")
		}
		i++
	}
}

// BenchmarkBTreePointScan is the probe a non-unique or partial key
// takes: seek to the prefix, collect its one entry.
func BenchmarkBTreePointScan(b *testing.B) {
	tr := benchTree()
	key := []val.Value{intv(1), intv(0)}
	var slots []int
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		key[1].I = int64(i % benchRows)
		if slots = tr.AppendRange(slots[:0], key, key); len(slots) != 1 {
			b.Fatal("missing key")
		}
		i++
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tr := newBTree(2)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		tr.Insert([]val.Value{intv(1), intv(i)}, i)
		i++
	}
}

// The stream benchmarks load an order_line-shaped primary key the way
// TPC-C's NewOrders fill it: keys (w, d, o, n), 40 districts each
// inserting its orders in ascending o, interleaved, ten lines an
// order, and a 280 B row version (order_line's 7 values) allocated
// beside each key, as an insert does. BenchmarkBTreeGet's keys are
// allocated back to back, so it cannot show what reaching a key costs
// once a table's rows lie between them.
const (
	streamCount  = 40
	streamLines  = 10
	streamOrders = 1250 // 500 000 entries
	streamRowLen = 7
)

// streamKey writes the j-th key in insert order into key.
func streamKey(key []val.Value, j int) {
	line, j := j%streamLines, j/streamLines
	s, o := j%streamCount, j/streamCount
	key[0], key[1], key[2], key[3] = intv(1+s/10), intv(1+s%10), intv(o), intv(1+line)
}

// streamTree returns the loaded tree, the rows kept beside its keys,
// and its entry count.
func streamTree(tb testing.TB) (*btree, [][]val.Value, int) {
	const n = streamCount * streamLines * streamOrders
	tr := newBTree(4)
	rows := make([][]val.Value, 0, n)
	key := make([]val.Value, 4)
	for j := 0; j < n; j++ {
		streamKey(key, j)
		rows = append(rows, make([]val.Value, streamRowLen))
		if !tr.Insert(key, j) {
			tb.Fatalf("stream key %v refused", key)
		}
	}
	return tr, rows, n
}

// BenchmarkBTreeStreamGet looks the loaded keys up in a scattered
// order.
func BenchmarkBTreeStreamGet(b *testing.B) {
	tr, rows, n := streamTree(b)
	key := make([]val.Value, 4)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		j := i * 7919 % n // coprime with n: every entry in turn
		streamKey(key, j)
		if v, ok := tr.Get(key); !ok || v != j {
			b.Fatalf("Get(%v) = %d,%v, want %d", key, v, ok, j)
		}
		i++
	}
	runtime.KeepAlive(rows)
}

// BenchmarkBTreeStreamInsert goes on inserting the streams, and
// allocating their rows, past the loaded keys.
func BenchmarkBTreeStreamInsert(b *testing.B) {
	tr, rows, n := streamTree(b)
	key := make([]val.Value, 4)
	b.ReportAllocs()
	j := n
	for b.Loop() {
		streamKey(key, j)
		rows = append(rows, make([]val.Value, streamRowLen))
		if !tr.Insert(key, j) {
			b.Fatalf("stream key %v refused", key)
		}
		j++
	}
	runtime.KeepAlive(rows)
}

// BenchmarkUpdateRowCopy measures what the copy-on-update row store
// pays per non-key UPDATE as rows widen: this repository's trimmed
// STOCK (5 columns) and CUSTOMER (6), and the TPC-C specification's
// full ones (17 and 21). rowcopy-B/op is the row version copied,
// columns × sizeof(val.Value); strings are shared, not copied.
func BenchmarkUpdateRowCopy(b *testing.B) {
	for _, w := range []struct {
		name string
		cols int
	}{{"stock", 5}, {"customer", 6}, {"stock-spec", 17}, {"customer-spec", 21}} {
		b.Run(fmt.Sprintf("%s/cols=%d", w.name, w.cols), func(b *testing.B) {
			s := Open().NewSession()
			ddl := "CREATE TABLE t (k INT PRIMARY KEY, n INT"
			ins := "INSERT INTO t VALUES (?, 0"
			for c := 2; c < w.cols; c++ {
				ddl += fmt.Sprintf(", c%d VARCHAR(24)", c)
				ins += ", 'twenty-four bytes of pad'"
			}
			if _, err := s.Exec(ddl + ")"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				if _, err := s.Exec(ins+")", intv(i)); err != nil {
					b.Fatal(err)
				}
			}
			st := prepare(b, s, "UPDATE t SET n = n + 1 WHERE k = ?")
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := s.ExecParsed(st, intv(i%1000)); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportMetric(float64(w.cols)*float64(unsafe.Sizeof(val.Value{})), "rowcopy-B/op")
		})
	}
}

// TestAllocCeilings holds the engine's steady-state allocation counts,
// so a regression shows on any host without timing anything. What is
// left is what a statement stores: the new row version, and now and
// then a B+tree node its keys fill. A transaction is the session's last one, lists and all,
// reused under a fresh ID, and a query writes into the caller's result
// set, so an engine that allocated per statement again fails here.
func TestAllocCeilings(t *testing.T) {
	cycle := lockCycle(t, Open())
	cycle() // first use grows txn.locks and the stripes' maps
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("lock cycle: %v allocs, want 0", got)
	}

	// inTxn measures run inside an explicit transaction. The first of
	// two passes grows the lists the session hands to the second.
	inTxn := func(s *Session, run func()) (got float64) {
		for pass := 0; pass < 2; pass++ {
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			got = testing.AllocsPerRun(200, run)
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	for nidx := 0; nidx <= 2; nidx++ {
		_, s := benchDB(t, nidx)
		ins := prepare(t, s, insertLine)
		i := 0
		got := inTxn(s, func() {
			if _, err := s.ExecParsed(ins, intv(i), intv(i%benchRows)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		// The row version. Its keys are copied into their B+tree nodes.
		if limit := 1.0; got > limit {
			t.Errorf("prepared insert with %d indexes: %v allocs, want <= %v", nidx, got, limit)
		}
		if nidx > 0 {
			continue
		}
		sel, upd := prepare(t, s, selectPK), prepare(t, s, updateNonKey)
		var rs ResultSet
		if got = inTxn(s, func() {
			if err := s.QueryInto(&rs, sel, intv(1), intv(i%benchRows)); err != nil {
				t.Fatal(err)
			}
			i++
		}); got > 0 {
			t.Errorf("prepared PK select: %v allocs, want 0", got)
		}
		// Outside a transaction it autocommits on the Txn the session's
		// last one finished with.
		if got = testing.AllocsPerRun(200, func() {
			if err := s.QueryInto(&rs, sel, intv(1), intv(i%benchRows)); err != nil {
				t.Fatal(err)
			}
			i++
		}); got > 0 {
			t.Errorf("autocommit PK select: %v allocs, want 0", got)
		}
		// The new row version.
		if got = inTxn(s, func() {
			if _, err := s.ExecParsed(upd, intv(50), intv(1), intv(1), intv(i%benchRows)); err != nil {
				t.Fatal(err)
			}
			i++
		}); got > 1 {
			t.Errorf("prepared non-key update: %v allocs, want <= 1", got)
		}
	}

	// The read path: what a SELECT allocates follows neither the rows it
	// reads nor the rows it returns.
	queryAllocs := func(s *Session, sql string, args ...val.Value) float64 {
		st := prepare(t, s, sql)
		var rs ResultSet
		return testing.AllocsPerRun(100, func() {
			if err := s.QueryInto(&rs, st, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
	items := tpcwDB(t, 1000)
	for _, limit := range []int{5, 20} {
		sql := fmt.Sprintf("SELECT i_id, i_title, i_total_sold FROM item ORDER BY i_total_sold DESC LIMIT %d", limit)
		if got := queryAllocs(items, sql); got > topNAllocs {
			t.Errorf("top %d of 1000 rows: %v allocs, want <= %v", limit, got, topNAllocs)
		}
	}
	if small, large := queryAllocs(tpcwDB(t, 200), likeScan), queryAllocs(items, likeScan); large != small {
		t.Errorf("LIKE scan returning 10 rows: %v allocs over 1000 rows, %v over 200", large, small)
	}
	day := intv(20000000 + 500)
	rng := queryAllocs(items, "SELECT i_id FROM item WHERE i_pub_date >= ? AND i_pub_date <= ?", day, day)
	if probe := queryAllocs(items, "SELECT i_id FROM item WHERE i_pub_date = ?", day); rng > probe {
		t.Errorf("range select returning 1 row: %v allocs, the prefix probe returning it %v", rng, probe)
	}

	// The allocating path is the same executor on fresh memory: the
	// result set, its row slice and its values.
	st := prepare(t, items, "SELECT i_id, i_title, i_total_sold FROM item ORDER BY i_total_sold DESC LIMIT 20")
	if got := testing.AllocsPerRun(100, func() {
		if _, err := items.QueryParsed(st); err != nil {
			t.Fatal(err)
		}
	}); got > topNAllocs+3 {
		t.Errorf("top 20 into a new result set: %v allocs, want <= %v", got, topNAllocs+3)
	}
}

// topNAllocs bounds what a top-N select over 1 000 rows allocates
// outside a transaction, into a reused result set. It holds one lock,
// its table's S, and its autocommit Txn is the session's last one, so
// it allocates nothing in steady state; the bound dates from when it
// locked every row and paid about one rehash a query of a lock-table
// map around the tombstones its releases left.
const topNAllocs = 2
