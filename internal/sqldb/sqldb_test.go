package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pyxis/internal/val"
)

func mustExec(t *testing.T, s *Session, sql string, args ...val.Value) int {
	t.Helper()
	n, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, s *Session, sql string, args ...val.Value) *ResultSet {
	t.Helper()
	rs, err := s.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func newAccountsDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (cid INT PRIMARY KEY, name VARCHAR(20), balance DOUBLE)")
	for i := 1; i <= 10; i++ {
		mustExec(t, s, "INSERT INTO accounts VALUES (?, ?, ?)",
			val.IntV(int64(i)), val.StrV(fmt.Sprintf("user%d", i)), val.DoubleV(float64(i)*100))
	}
	return db, s
}

func TestCreateInsertSelect(t *testing.T) {
	_, s := newAccountsDB(t)
	rs := mustQuery(t, s, "SELECT * FROM accounts WHERE cid = ?", val.IntV(3))
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rs.Rows))
	}
	if rs.Rows[0][1].S != "user3" || rs.Rows[0][2].F != 300 {
		t.Errorf("row = %v", rs.Rows[0])
	}
	if len(rs.Cols) != 3 || rs.Cols[0] != "CID" {
		t.Errorf("cols = %v", rs.Cols)
	}
}

func TestProjectionAndWhere(t *testing.T) {
	_, s := newAccountsDB(t)
	rs := mustQuery(t, s, "SELECT name, balance FROM accounts WHERE balance >= 800")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if len(r) != 2 || r[1].F < 800 {
			t.Errorf("bad row %v", r)
		}
	}
}

func TestUpdateWithArithmetic(t *testing.T) {
	_, s := newAccountsDB(t)
	n := mustExec(t, s, "UPDATE accounts SET balance = balance - ? WHERE cid = ?", val.DoubleV(50), val.IntV(2))
	if n != 1 {
		t.Fatalf("updated %d rows, want 1", n)
	}
	rs := mustQuery(t, s, "SELECT balance FROM accounts WHERE cid = 2")
	if rs.Rows[0][0].F != 150 {
		t.Errorf("balance = %v, want 150", rs.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	_, s := newAccountsDB(t)
	n := mustExec(t, s, "DELETE FROM accounts WHERE cid > 5")
	if n != 5 {
		t.Fatalf("deleted %d, want 5", n)
	}
	rs := mustQuery(t, s, "SELECT COUNT(*) FROM accounts")
	if rs.Rows[0][0].I != 5 {
		t.Errorf("count = %v, want 5", rs.Rows[0][0])
	}
}

func TestDuplicatePK(t *testing.T) {
	_, s := newAccountsDB(t)
	_, err := s.Exec("INSERT INTO accounts VALUES (1, 'dup', 0.0)")
	if !errors.Is(err, ErrDupKey) {
		t.Fatalf("err = %v, want ErrDupKey", err)
	}
}

func TestAggregates(t *testing.T) {
	_, s := newAccountsDB(t)
	rs := mustQuery(t, s, "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), AVG(balance) FROM accounts")
	r := rs.Rows[0]
	if r[0].I != 10 {
		t.Errorf("count = %v", r[0])
	}
	if r[1].F != 5500 {
		t.Errorf("sum = %v, want 5500", r[1])
	}
	if r[2].F != 100 || r[3].F != 1000 {
		t.Errorf("min/max = %v/%v", r[2], r[3])
	}
	if r[4].F != 550 {
		t.Errorf("avg = %v, want 550", r[4])
	}
}

func TestAggregateEmptySet(t *testing.T) {
	_, s := newAccountsDB(t)
	rs := mustQuery(t, s, "SELECT COUNT(*), SUM(balance) FROM accounts WHERE cid > 1000")
	if rs.Rows[0][0].I != 0 {
		t.Errorf("count = %v, want 0", rs.Rows[0][0])
	}
}

func TestOrderByLimit(t *testing.T) {
	_, s := newAccountsDB(t)
	rs := mustQuery(t, s, "SELECT cid FROM accounts ORDER BY balance DESC LIMIT 3")
	want := []int64{10, 9, 8}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	for i, w := range want {
		if rs.Rows[i][0].I != w {
			t.Errorf("row %d = %v, want %d", i, rs.Rows[i][0], w)
		}
	}
}

func TestSecondaryIndexUsed(t *testing.T) {
	db, s := newAccountsDB(t)
	mustExec(t, s, "CREATE INDEX idx_name ON accounts (name)")
	before := db.Stats().RowsScanned
	rs := mustQuery(t, s, "SELECT cid FROM accounts WHERE name = ?", val.StrV("user7"))
	after := db.Stats().RowsScanned
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if scanned := after - before; scanned != 1 {
		t.Errorf("scanned %d rows via index, want 1", scanned)
	}
}

func TestLike(t *testing.T) {
	_, s := newAccountsDB(t)
	rs := mustQuery(t, s, "SELECT COUNT(*) FROM accounts WHERE name LIKE 'user1%'")
	// user1, user10
	if rs.Rows[0][0].I != 2 {
		t.Errorf("count = %v, want 2", rs.Rows[0][0])
	}
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "he%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h%o", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"héllo", "h_llo", true},
		{"ab", "a_%", true},
		{"a", "a_%", false},
		{"aXbXc", "%X_", true},
		{"", "_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	// Against a regular expression: % is .*, _ is one character.
	rng := rand.New(rand.NewSource(1))
	word := func(alphabet string) string {
		b := make([]byte, rng.Intn(7))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s, pat := word("ab"), word("ab%_")
		re := regexp.MustCompile("^(?s)" + strings.NewReplacer("%", ".*", "_", ".").Replace(pat) + "$")
		if got, want := likeMatch(s, pat), re.MatchString(s); got != want {
			t.Fatalf("likeMatch(%q,%q) = %v, want %v", s, pat, got, want)
		}
	}
}

func TestJoin(t *testing.T) {
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60), i_a_id INT)")
	mustExec(t, s, "CREATE TABLE author (a_id INT PRIMARY KEY, a_name VARCHAR(60))")
	mustExec(t, s, "INSERT INTO author VALUES (1, 'knuth')")
	mustExec(t, s, "INSERT INTO author VALUES (2, 'lamport')")
	mustExec(t, s, "INSERT INTO item VALUES (10, 'taocp', 1)")
	mustExec(t, s, "INSERT INTO item VALUES (11, 'paxos', 2)")
	mustExec(t, s, "INSERT INTO item VALUES (12, 'latex', 2)")

	rs := mustQuery(t, s, "SELECT i_title, a_name FROM item, author WHERE i_a_id = a_id AND a_name = ?", val.StrV("lamport"))
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for _, r := range rs.Rows {
		if r[1].S != "lamport" {
			t.Errorf("bad join row %v", r)
		}
	}

	// Join with alias qualification.
	rs = mustQuery(t, s, "SELECT i.i_title FROM item i, author a WHERE i.i_a_id = a.a_id AND a.a_id = 1")
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "taocp" {
		t.Fatalf("alias join rows = %v", rs.Rows)
	}
}

func TestTransactionCommitRollback(t *testing.T) {
	_, s := newAccountsDB(t)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE accounts SET balance = 0.0 WHERE cid = 1")
	mustExec(t, s, "INSERT INTO accounts VALUES (99, 'temp', 1.0)")
	mustExec(t, s, "DELETE FROM accounts WHERE cid = 2")
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, s, "SELECT balance FROM accounts WHERE cid = 1")
	if rs.Rows[0][0].F != 100 {
		t.Errorf("rollback did not restore update: %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, s, "SELECT COUNT(*) FROM accounts")
	if rs.Rows[0][0].I != 10 {
		t.Errorf("rollback did not restore inserts/deletes: count=%v", rs.Rows[0][0])
	}

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE accounts SET balance = 0.0 WHERE cid = 1")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rs = mustQuery(t, s, "SELECT balance FROM accounts WHERE cid = 1")
	if rs.Rows[0][0].F != 0 {
		t.Errorf("commit lost update: %v", rs.Rows[0][0])
	}
}

func TestTxnStateErrors(t *testing.T) {
	_, s := newAccountsDB(t)
	if err := s.Commit(); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("Commit outside txn: %v", err)
	}
	if err := s.Rollback(); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("Rollback outside txn: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); !errors.Is(err, ErrInTransaction) {
		t.Errorf("nested Begin: %v", err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestNoDirtyRead: a reader must block on an uncommitted write and see
// the committed value afterwards.
func TestNoDirtyRead(t *testing.T) {
	db, s1 := newAccountsDB(t)
	s2 := db.NewSession()

	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE accounts SET balance = 42.0 WHERE cid = 1")

	got := make(chan float64, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs, err := s2.Query("SELECT balance FROM accounts WHERE cid = 1")
		if err != nil {
			t.Errorf("reader: %v", err)
			got <- -1
			return
		}
		got <- rs.Rows[0][0].F
	}()

	select {
	case v := <-got:
		t.Fatalf("reader returned %v before writer committed (dirty read)", v)
	case <-time.After(30 * time.Millisecond):
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if v := <-got; v != 42 {
		t.Errorf("reader saw %v, want committed 42", v)
	}
}

// TestDeadlockDetection: two transactions write two rows in crossing
// order, each holding X on one row and asking for X on the other.
func TestDeadlockDetection(t *testing.T) {
	db, s1 := newAccountsDB(t)
	s2 := db.NewSession()

	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE accounts SET balance = 1.0 WHERE cid = 1")
	mustExec(t, s2, "UPDATE accounts SET balance = 2.0 WHERE cid = 2")

	errs := make(chan error, 2)
	go func() {
		_, err := s1.Exec("UPDATE accounts SET balance = 1.0 WHERE cid = 2")
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_, err2 := s2.Exec("UPDATE accounts SET balance = 2.0 WHERE cid = 1")
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("expected deadlock for s2, got %v", err2)
	}
	// s2 aborted by deadlock; s1 should now complete.
	if err := <-errs; err != nil {
		t.Fatalf("s1 should proceed after victim aborts: %v", err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	_, dl := db.LockWaits()
	if dl == 0 {
		t.Error("deadlock counter not incremented")
	}
}

// TestSerializedTransfers runs concurrent balance transfers and checks
// that the total is conserved (atomicity + isolation).
func TestSerializedTransfers(t *testing.T) {
	db, s := newAccountsDB(t)
	total := func() float64 {
		rs := mustQuery(t, s, "SELECT SUM(balance) FROM accounts")
		return rs.Rows[0][0].F
	}
	before := total()

	const workers = 8
	const transfers = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sess := db.NewSession()
			for i := 0; i < transfers; i++ {
				from := rng.Intn(10) + 1
				to := rng.Intn(10) + 1
				if from == to {
					continue
				}
				if err := sess.Begin(); err != nil {
					t.Error(err)
					return
				}
				_, err := sess.Exec("UPDATE accounts SET balance = balance - 1.0 WHERE cid = ?", val.IntV(int64(from)))
				if err == nil {
					_, err = sess.Exec("UPDATE accounts SET balance = balance + 1.0 WHERE cid = ?", val.IntV(int64(to)))
				}
				if err != nil {
					if sess.InTxn() {
						_ = sess.Rollback()
					}
					continue // deadlock victim: retry not needed for the invariant
				}
				if err := sess.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if after := total(); after != before {
		t.Errorf("total balance changed: %v -> %v", before, after)
	}
}

func TestCompositePK(t *testing.T) {
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE ol (o_id INT, num INT, qty INT, PRIMARY KEY (o_id, num))")
	for o := 1; o <= 3; o++ {
		for n := 1; n <= 4; n++ {
			mustExec(t, s, "INSERT INTO ol VALUES (?, ?, ?)", val.IntV(int64(o)), val.IntV(int64(n)), val.IntV(int64(o*n)))
		}
	}
	rs := mustQuery(t, s, "SELECT COUNT(*) FROM ol WHERE o_id = 2")
	if rs.Rows[0][0].I != 4 {
		t.Errorf("prefix scan count = %v, want 4", rs.Rows[0][0])
	}
	rs = mustQuery(t, s, "SELECT qty FROM ol WHERE o_id = 2 AND num = 3")
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 6 {
		t.Errorf("point lookup = %v", rs.Rows)
	}
	_, err := s.Exec("INSERT INTO ol VALUES (2, 3, 0)")
	if !errors.Is(err, ErrDupKey) {
		t.Errorf("composite dup: %v", err)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10), c DOUBLE)")
	mustExec(t, s, "INSERT INTO t (c, a, b) VALUES (1.5, 7, 'x')")
	rs := mustQuery(t, s, "SELECT a, b, c FROM t")
	r := rs.Rows[0]
	if r[0].I != 7 || r[1].S != "x" || r[2].F != 1.5 {
		t.Errorf("row = %v", r)
	}
}

func TestSQLErrors(t *testing.T) {
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (a INT PRIMARY KEY)")
	cases := []string{
		"SELECT * FROM missing",
		"INSERT INTO t VALUES (1, 2)",
		"UPDATE t SET nocol = 1",
		"SELECT nocol FROM t WHERE nocol = 1",
		"CREATE TABLE t (a INT PRIMARY KEY)",
		"CREATE TABLE nopk (a INT)",
		"FROB x",
		"SELECT * FROM t WHERE",
	}
	for _, sql := range cases {
		if _, qerr := s.Query(sql); qerr == nil {
			if _, xerr := s.Exec(sql); xerr == nil {
				t.Errorf("%q: expected error", sql)
			}
		}
	}
	if _, err := s.Exec("SELECT * FROM t"); err == nil {
		t.Error("Exec(SELECT) should fail")
	}
	if _, err := s.Query("DELETE FROM t"); err == nil {
		t.Error("Query(DELETE) should fail")
	}
	if _, err := s.Exec("INSERT INTO t VALUES (?)"); err == nil {
		t.Error("missing parameter should fail")
	}
}

func TestParseSQLShapes(t *testing.T) {
	cases := []string{
		"SELECT w_tax FROM warehouse WHERE w_id = ?",
		"SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
		"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?",
		"INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id) VALUES (?, ?, ?, ?)",
		"SELECT i_price, i_name FROM item WHERE i_id = ?",
		"SELECT COUNT(*) FROM order_line WHERE ol_w_id = ?",
		"SELECT i_title FROM item ORDER BY i_pub_date DESC, i_title LIMIT 50",
		"SELECT a.a_name FROM item i, author a WHERE i.i_a_id = a.a_id AND i.i_id = ?",
		"DELETE FROM new_order WHERE no_o_id = ? AND no_d_id = ? AND no_w_id = ?",
		"SELECT i_title FROM item WHERE i_title LIKE ?",
		"UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_i_id = ? AND s_w_id = ?",
	}
	for _, sql := range cases {
		if _, err := ParseSQL(sql); err != nil {
			t.Errorf("ParseSQL(%q): %v", sql, err)
		}
	}
}

// Property test: the B+tree agrees with a reference sorted map under
// random insert/delete/scan sequences.
func TestBTreeMatchesReference(t *testing.T) {
	f := func(ops []int16, seed int64) bool {
		tr := newBTree(1)
		ref := map[int64]int{}
		rng := rand.New(rand.NewSource(seed))
		for i, op := range ops {
			k := int64(op % 64)
			key := []val.Value{val.IntV(k)}
			switch rng.Intn(3) {
			case 0:
				insOK := tr.Insert(key, i)
				_, exists := ref[k]
				if insOK == exists {
					return false
				}
				if insOK {
					ref[k] = i
				}
			case 1:
				delOK := tr.Delete(key)
				_, exists := ref[k]
				if delOK != exists {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := tr.Get(key)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Full scan must visit keys in sorted order matching ref.
		var keys []int64
		tr.Scan(nil, nil, func(key []val.Value, v int) bool {
			keys = append(keys, key[0].I)
			return true
		})
		var want []int64
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(keys) != len(want) {
			return false
		}
		for i := range keys {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBTreeLargeSequential(t *testing.T) {
	tr := newBTree(1)
	const n = 10000
	for i := 0; i < n; i++ {
		if !tr.Insert([]val.Value{val.IntV(int64(i))}, i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < n; i += 37 {
		v, ok := tr.Get([]val.Value{val.IntV(int64(i))})
		if !ok || v != i {
			t.Fatalf("get %d = %d,%v", i, v, ok)
		}
	}
	count := 0
	last := int64(-1)
	tr.Scan([]val.Value{val.IntV(100)}, []val.Value{val.IntV(199)}, func(key []val.Value, v int) bool {
		if key[0].I <= last {
			t.Fatalf("scan out of order: %d after %d", key[0].I, last)
		}
		last = key[0].I
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("range scan count = %d, want 100", count)
	}
}

// Property: commit/rollback leave the table in exactly the expected
// state for random operation sequences.
func TestTxnAtomicityProperty(t *testing.T) {
	f := func(ops []uint8, commit bool) bool {
		db := Open()
		s := db.NewSession()
		if _, err := s.Exec("CREATE TABLE t (k INT PRIMARY KEY, v INT)"); err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			if _, err := s.Exec("INSERT INTO t VALUES (?, 0)", val.IntV(int64(i))); err != nil {
				return false
			}
		}
		snapshot := func() map[int64]int64 {
			rs, _ := s.Query("SELECT k, v FROM t")
			m := map[int64]int64{}
			for _, r := range rs.Rows {
				m[r[0].I] = r[1].I
			}
			return m
		}
		before := snapshot()
		ref := map[int64]int64{}
		for k, v := range before {
			ref[k] = v
		}
		if err := s.Begin(); err != nil {
			return false
		}
		nextKey := int64(100)
		for _, op := range ops {
			k := int64(op % 12)
			switch op % 3 {
			case 0:
				if _, ok := ref[k]; ok {
					if _, err := s.Exec("UPDATE t SET v = v + 1 WHERE k = ?", val.IntV(k)); err != nil {
						return false
					}
					ref[k]++
				}
			case 1:
				if _, ok := ref[nextKey]; !ok {
					if _, err := s.Exec("INSERT INTO t VALUES (?, 7)", val.IntV(nextKey)); err != nil {
						return false
					}
					ref[nextKey] = 7
					nextKey++
				}
			case 2:
				if _, ok := ref[k]; ok {
					if _, err := s.Exec("DELETE FROM t WHERE k = ?", val.IntV(k)); err != nil {
						return false
					}
					delete(ref, k)
				}
			}
		}
		if commit {
			if err := s.Commit(); err != nil {
				return false
			}
		} else {
			if err := s.Rollback(); err != nil {
				return false
			}
			ref = before
		}
		after := snapshot()
		if len(after) != len(ref) {
			return false
		}
		for k, v := range ref {
			if after[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexMaintainedAcrossUpdateRollback(t *testing.T) {
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INT PRIMARY KEY, tag VARCHAR(5))")
	mustExec(t, s, "CREATE INDEX it ON t (tag)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a')")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE t SET tag = 'b' WHERE k = 1")
	rs := mustQuery(t, s, "SELECT k FROM t WHERE tag = 'b'")
	if len(rs.Rows) != 1 {
		t.Fatalf("index should see in-txn update: %v", rs.Rows)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs = mustQuery(t, s, "SELECT k FROM t WHERE tag = 'a'")
	if len(rs.Rows) != 1 {
		t.Errorf("index entry not restored after rollback: %v", rs.Rows)
	}
	rs = mustQuery(t, s, "SELECT k FROM t WHERE tag = 'b'")
	if len(rs.Rows) != 0 {
		t.Errorf("stale index entry after rollback: %v", rs.Rows)
	}
}

func TestResultSetSize(t *testing.T) {
	rs := &ResultSet{Cols: []string{"A"}, Rows: [][]val.Value{{val.IntV(1)}, {val.IntV(2)}}}
	if rs.Size() <= 0 {
		t.Error("size should be positive")
	}
}

// TestLargeIntKeys pins exact integer key ordering end to end: keys
// that differ only beyond 2^53 are distinct in the B+tree and as
// primary keys, and SUM over INT columns does not round through
// float64.
func TestLargeIntKeys(t *testing.T) {
	const big = int64(1) << 53
	tr := newBTree(1)
	if !tr.Insert([]val.Value{val.IntV(big)}, 1) {
		t.Fatal("insert 2^53 failed")
	}
	if !tr.Insert([]val.Value{val.IntV(big + 1)}, 2) {
		t.Fatal("insert 2^53+1 refused as a duplicate of 2^53")
	}
	for want, k := range map[int]int64{1: big, 2: big + 1} {
		if got, ok := tr.Get([]val.Value{val.IntV(k)}); !ok || got != want {
			t.Errorf("Get(%d) = %d,%v, want %d", k, got, ok, want)
		}
	}

	s := Open().NewSession()
	mustExec(t, s, "CREATE TABLE big (k INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO big VALUES (?, ?)", val.IntV(big), val.IntV(big))
	mustExec(t, s, "INSERT INTO big VALUES (?, ?)", val.IntV(big+1), val.IntV(1))
	rs := mustQuery(t, s, "SELECT v FROM big WHERE k = ?", val.IntV(big+1))
	if len(rs.Rows) != 1 || rs.Rows[0][0].I != 1 {
		t.Errorf("point select of 2^53+1 = %v, want [[1]]", rs.Rows)
	}
	rs = mustQuery(t, s, "SELECT SUM(v) FROM big")
	if got := rs.Rows[0][0]; got.K != val.Int || got.I != big+1 {
		t.Errorf("SUM = %v, want %d", got, big+1)
	}
}
