package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pyxis/internal/val"
)

// The plans-against-brute-force suite: a SELECT answered through the
// access paths, join order and bounded ORDER BY the binder picks must
// agree with the full cross product of the FROM tables in FROM order,
// filtered by every conjunct, stable-sorted and truncated — and must
// lock every row of every match, LIMIT or not.

// bruteCols lists the columns the query generator draws from. Every
// table has an a and a b, with INT and DOUBLE swapped in t2, so an
// unqualified a means the first FROM entry's and joins compare INT with
// DOUBLE.
var bruteCols = map[string][]string{
	"T0": {"K", "A", "B", "C"},
	"T1": {"K1", "K2", "A", "B"},
	"T2": {"K", "A", "B", "U"},
}

// bruteDB loads t0 (PK k), t1 (composite PK k1, k2) and t2 (PK k) in a
// shuffled order, with NULLs and a few deleted rows, so slot order is
// not key order. The secondary indexes — t0 (a), (b, c) and UNIQUE (c),
// t1 (a, b), t2 UNIQUE (u) and (a) — each exist with probability 3/4,
// or all of them when rng is nil (then the data come from seed 1).
func bruteDB(tb testing.TB, rng *rand.Rand) *DB {
	tb.Helper()
	all := rng == nil
	if all {
		rng = rand.New(rand.NewSource(1))
	}
	db := Open()
	s := db.NewSession()
	exec := func(sql string, args ...val.Value) {
		tb.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
	exec("CREATE TABLE t0 (k INT PRIMARY KEY, a INT, b DOUBLE, c INT, s VARCHAR(4))")
	exec("CREATE TABLE t1 (k1 INT, k2 INT, a INT, b DOUBLE, PRIMARY KEY (k1, k2))")
	exec("CREATE TABLE t2 (k INT PRIMARY KEY, a DOUBLE, b INT, u INT)")
	for _, ddl := range []string{
		"CREATE INDEX t0_a ON t0 (a)",
		"CREATE INDEX t0_bc ON t0 (b, c)",
		"CREATE UNIQUE INDEX t0_c ON t0 (c)",
		"CREATE INDEX t1_ab ON t1 (a, b)",
		"CREATE UNIQUE INDEX t2_u ON t2 (u)",
		"CREATE INDEX t2_a ON t2 (a)",
	} {
		if all || rng.Intn(4) > 0 {
			exec(ddl)
		}
	}
	ival := func() val.Value {
		switch r := rng.Intn(40); {
		case r < 6:
			return val.NullV()
		case r == 6:
			return val.IntV(1<<53 + int64(rng.Intn(2)))
		default:
			return val.IntV(int64(rng.Intn(9) - 2))
		}
	}
	dval := func() val.Value {
		if rng.Intn(7) == 0 {
			return val.NullV()
		}
		return val.DoubleV([]float64{-1.5, 0, 0.5, 1, 2, 2.5, 3, 4.5}[rng.Intn(8)])
	}
	type ins struct {
		sql  string
		args []val.Value
	}
	var rows []ins
	for k, c := range rng.Perm(24) {
		rows = append(rows, ins{"INSERT INTO t0 VALUES (?, ?, ?, ?, ?)", []val.Value{
			val.IntV(int64(k)), ival(), dval(), val.IntV(int64(c)), val.StrV([]string{"", "a", "ab", "b", "ba"}[rng.Intn(5)])}})
	}
	for k := 0; k < 20; k++ {
		rows = append(rows, ins{"INSERT INTO t1 VALUES (?, ?, ?, ?)", []val.Value{
			val.IntV(int64(k / 5)), val.IntV(int64(k % 5)), ival(), dval()}})
	}
	for k, u := range rng.Perm(16) {
		rows = append(rows, ins{"INSERT INTO t2 VALUES (?, ?, ?, ?)", []val.Value{
			val.IntV(int64(k)), dval(), ival(), val.IntV(int64(2 * u))}})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, r := range rows {
		exec(r.sql, r.args...)
	}
	for _, del := range []string{"DELETE FROM t0 WHERE k = ?", "DELETE FROM t1 WHERE k1 = 1 AND k2 = ?", "DELETE FROM t2 WHERE k = ?"} {
		exec(del, val.IntV(int64(rng.Intn(5))))
	}
	return db
}

// bruteRow is one match of the reference: its projected row, its ORDER
// BY key and the slot of each FROM entry's row.
type bruteRow struct {
	row, key []val.Value
	slots    []int
}

// bruteSelect answers st the slow way: every combination of live rows
// in FROM order, kept if every conjunct holds (one that cannot be
// evaluated — a missing parameter — does not), stable-sorted by the
// ORDER BY key. It also returns the select list bound in FROM order.
func bruteSelect(db *DB, st *SelectStmt, args []val.Value) (*boundPlan, []bruteRow, error) {
	b, err := db.fromList(st.Tables)
	if err != nil {
		return nil, nil, err
	}
	ref := &boundPlan{}
	if err := b.selectList(ref, st); err != nil {
		return nil, nil, err
	}
	conds, err := b.conds(st.Where)
	if err != nil {
		return nil, nil, err
	}
	var out []bruteRow
	cur := make([][]val.Value, len(b.tables))
	slots := make([]int, len(b.tables))
	var walk func(level int)
	walk = func(level int) {
		if level == len(b.tables) {
			for i := range conds {
				if ok, err := conds[i].holds(cur, args); !ok || err != nil {
					return
				}
			}
			r := bruteRow{slots: slices.Clone(slots)}
			for _, at := range ref.proj {
				if at.level < 0 {
					r.row = append(r.row, val.IntV(1))
				} else {
					r.row = append(r.row, cur[at.level][at.col])
				}
			}
			for _, o := range ref.orderBy {
				r.key = append(r.key, cur[o.level][o.col])
			}
			out = append(out, r)
			return
		}
		for slot, row := range b.tables[level].rows {
			if row != nil {
				cur[level], slots[level] = row, slot
				walk(level + 1)
			}
		}
	}
	walk(0)
	slices.SortStableFunc(out, func(x, y bruteRow) int { return cmpOrder(ref.orderBy, x.key, y.key) })
	return ref, out, nil
}

// checkSelect compares got, the engine's rows for st, with the brute
// reference, and checks that txn holds a lock on every row of every
// match. With ORDER BY, position i must hold a row of the reference's
// key at i, the rows before the last key group must be the reference's
// as a multiset, and the rows of that group a sub-multiset of all the
// reference rows with its key; LIMIT may cut a tie anywhere. Without
// ORDER BY every row ties.
func checkSelect(db *DB, st *SelectStmt, args []val.Value, got [][]val.Value, txn *Txn) error {
	ref, want, err := bruteSelect(db, st, args)
	if err != nil {
		return fmt.Errorf("reference does not bind: %v", err)
	}
	locked := map[lockKey]bool{}
	for _, k := range txn.locks {
		locked[k] = true
	}
	for _, r := range want {
		for i, slot := range r.slots {
			if k := db.lookupTable(st.Tables[i].Table).lockKey(slot); !locked[k] {
				return fmt.Errorf("matching row %v is not locked", k)
			}
		}
	}
	if ref.aggs != nil {
		rows := make([][]val.Value, len(want))
		for i, r := range want {
			rows[i] = r.row
		}
		exp := computeAggregates(ref.aggs, rows)
		if len(got) != 1 || !slices.EqualFunc(got[0], exp, aggEqual) {
			return fmt.Errorf("aggregates %v, want %v", got, exp)
		}
		return nil
	}
	n := len(want)
	if st.Limit >= 0 {
		n = min(n, st.Limit)
	}
	if len(got) != n {
		return fmt.Errorf("%d rows, want %d", len(got), n)
	}
	if n == 0 {
		return nil
	}
	if p := st.cell().p.Load(); len(p.levels) == 1 && p.levels[0].tree == nil {
		// A one-table scan meets rows in slot order, as the reference
		// does: the result is the stable sort's, tie order included.
		for i, row := range got {
			if rowText(row) != rowText(want[i].row) {
				return fmt.Errorf("scan row %d = %v, want %v", i, row, want[i].row)
			}
		}
		return nil
	}
	last := want[n-1].key
	tied := func(r bruteRow) bool { return cmpOrder(ref.orderBy, r.key, last) == 0 }
	head, tail := map[string]int{}, map[string]int{}
	pairs := map[string]bool{} // key and row of every match
	for i, r := range want {
		text := rowText(r.row)
		pairs[rowText(r.key)+"\x00"+text] = true
		switch {
		case tied(r):
			tail[text]++
		case i < n:
			head[text]++
		}
	}
	for i, row := range got {
		text := rowText(row)
		if !pairs[rowText(want[i].key)+"\x00"+text] {
			return fmt.Errorf("row %d = %v has no match of the reference's key %v there", i, row, want[i].key)
		}
		bag := head
		if tied(want[i]) {
			bag = tail
		}
		if bag[text]--; bag[text] < 0 {
			return fmt.Errorf("row %d = %v occurs more often than in the reference", i, row)
		}
	}
	for r, k := range head {
		if k != 0 {
			return fmt.Errorf("row %s missing ahead of the last key", r)
		}
	}
	return nil
}

func rowText(row []val.Value) string {
	var b []byte
	for _, v := range row {
		b = append(append(append(b, byte('0'+v.K)), v.String()...), '|')
	}
	return string(b)
}

// aggEqual compares aggregate values; a double sum depends on the order
// the rows arrive in, so doubles agree to a relative 1e-9.
func aggEqual(a, b val.Value) bool {
	if a.K == val.Double && b.K == val.Double {
		return math.Abs(a.F-b.F) <= 1e-9*max(1, math.Abs(a.F), math.Abs(b.F)) || a.F == b.F
	}
	return a.K == b.K && a.Equal(b)
}

// randomSelect writes a SELECT over 1–3 of the tables (repeats allowed,
// aliased x0..x2) with up to four =, <, <=, > and >= conjuncts against
// literals, parameters and other entries' columns, its ORDER BY keys
// (ties are common: the value domains are small) projected first, and
// LIMIT none, 0, 1 or k.
func randomSelect(rng *rand.Rand) (string, []val.Value) {
	tables := []string{"T0", "T1", "T2"}
	from := make([]string, 1+rng.Intn(3))
	for i := range from {
		from[i] = tables[rng.Intn(3)]
	}
	col := func() string {
		i := rng.Intn(len(from))
		c := bruteCols[from[i]][rng.Intn(4)]
		if rng.Intn(5) == 0 {
			return c // unqualified: the first FROM entry that has it
		}
		return fmt.Sprintf("x%d.%s", i, c)
	}
	var args []val.Value
	operand := func() string {
		switch r := rng.Intn(20); {
		case r < 7:
			return col()
		case r < 13:
			args = append(args, []val.Value{
				val.IntV(int64(rng.Intn(9) - 2)), val.IntV(int64(rng.Intn(9) - 2)), val.DoubleV(float64(rng.Intn(12))/2 - 1),
				val.NullV(), val.StrV("b"), val.IntV(1 << 53), val.DoubleV(1 << 53),
			}[rng.Intn(7)])
			return "?"
		default:
			return []string{"0", "1", "2", "4", "-1", "0.5", "2.0", "2.5", "NULL", "9007199254740992.0", "9007199254740993"}[rng.Intn(11)]
		}
	}
	var where []string
	for range rng.Intn(5) {
		l, r := col(), operand()
		if rng.Intn(3) == 0 {
			l, r = r, l
		}
		where = append(where, l+" "+[]string{"=", "<", "<=", ">", ">="}[rng.Intn(5)]+" "+r)
	}
	var keys, order []string
	for range rng.Intn(3) {
		k := col()
		keys = append(keys, k)
		if rng.Intn(2) == 0 {
			k += " DESC"
		}
		order = append(order, k)
	}
	list := append(keys, col())
	if rng.Intn(10) == 0 {
		list = []string{"*"}
	}
	sql := "SELECT " + strings.Join(list, ", ") + " FROM "
	for i, t := range from {
		if i > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf("%s x%d", t, i)
	}
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	if len(order) > 0 {
		sql += " ORDER BY " + strings.Join(order, ", ")
	}
	switch r := rng.Intn(20); {
	case r < 2:
		sql += " LIMIT 0"
	case r < 5:
		sql += " LIMIT 1"
	case r < 12:
		sql += fmt.Sprintf(" LIMIT %d", 2+rng.Intn(7))
	}
	return sql, args
}

// querySelect runs st in its own transaction and, if the engine
// answers, checks the answer against the reference before committing.
func querySelect(db *DB, s *Session, st *SelectStmt, args []val.Value) (answered bool, err error) {
	if err := s.Begin(); err != nil {
		return false, err
	}
	defer s.Commit()
	rs, err := s.QueryParsed(st, args...)
	if err != nil {
		return false, err
	}
	return true, checkSelect(db, st, args, rs.Rows, s.txn)
}

// TestPlansMatchBruteForce runs 50 random SELECTs on each of 30 random
// databases through the engine and through bruteSelect.
func TestPlansMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := bruteDB(t, rng)
		s := db.NewSession()
		for q := 0; q < 50; q++ {
			sql, args := randomSelect(rng)
			st, err := ParseSQL(sql)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, sql, err)
			}
			if _, err := querySelect(db, s, st.(*SelectStmt), args); err != nil {
				t.Fatalf("seed %d: %s %v: %v", seed, sql, args, err)
			}
		}
	}
}

// TestRangeUpdateVisitsEachRowOnce moves an indexed column through the
// very range its UPDATE walks: the candidates are collected before the
// first row is written, so no row is seen twice (the Halloween problem).
func TestRangeUpdateVisitsEachRowOnce(t *testing.T) {
	for _, c := range []struct {
		sql  string
		hit  func(k, a int64) bool // the row matches the WHERE clause
		move func(k, a int64) (int64, int64)
	}{
		{"UPDATE m SET a = a + 4, n = n + 1 WHERE a >= 2 AND a <= 7",
			func(k, a int64) bool { return a >= 2 && a <= 7 }, func(k, a int64) (int64, int64) { return k, a + 4 }},
		{"UPDATE m SET a = a - 4, n = n + 1 WHERE a >= 2 AND a <= 7",
			func(k, a int64) bool { return a >= 2 && a <= 7 }, func(k, a int64) (int64, int64) { return k, a - 4 }},
		{"UPDATE m SET k = k + 1000, n = n + 1 WHERE k >= 20",
			func(k, a int64) bool { return k >= 20 }, func(k, a int64) (int64, int64) { return k + 1000, a }},
	} {
		db := Open()
		s := db.NewSession()
		mustExec(t, s, "CREATE TABLE m (k INT PRIMARY KEY, a INT, n INT)")
		mustExec(t, s, "CREATE INDEX m_a ON m (a)")
		want := map[[2]int64]int64{} // (k, a) after the update → n
		for k := int64(0); k < 60; k++ {
			mustExec(t, s, "INSERT INTO m VALUES (?, ?, 0)", val.IntV(k), val.IntV(k%10))
			if c.hit(k, k%10) {
				k2, a2 := c.move(k, k%10)
				want[[2]int64{k2, a2}] = 1
			} else {
				want[[2]int64{k, k % 10}] = 0
			}
		}
		st := prepare(t, s, c.sql)
		mustExec(t, s, c.sql)
		if lp := st.(dmlStmt).cell().p.Load().levels[0]; lp.tree == nil || lp.lo == nil {
			t.Errorf("%s: no range walk", c.sql)
		}
		rs := mustQuery(t, s, "SELECT k, a, n FROM m")
		if len(rs.Rows) != len(want) {
			t.Errorf("%s: %d rows, want %d", c.sql, len(rs.Rows), len(want))
		}
		for _, r := range rs.Rows {
			if n, ok := want[[2]int64{r[0].I, r[1].I}]; !ok || n != r[2].I {
				t.Errorf("%s: row (k=%d, a=%d) updated %d times; want a row there updated %d times (present: %v)", c.sql, r[0].I, r[1].I, r[2].I, n, ok)
			}
		}
	}
}

// FuzzSQLQuery parses, binds and executes arbitrary SQL against a small
// loaded database (bruteDB with every index). Nothing may panic; a
// SELECT the engine answers must agree with bruteSelect and lock every
// matching row.
func FuzzSQLQuery(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t0 WHERE a <= 2",
		"SELECT k, a FROM t0 WHERE b = 2.5 AND c >= 3 ORDER BY c DESC LIMIT 3",
		"SELECT x.k1, y.u FROM t1 x, t2 y WHERE y.u = ? AND x.k1 = y.b AND x.k2 > 1",
		"SELECT a, b FROM t2, t0 WHERE t0.k = ? AND t2.a < t0.b ORDER BY a, b DESC LIMIT 5",
		"SELECT COUNT(*), SUM(b), MIN(a) FROM t1 WHERE a > -1 AND a < 4",
		"SELECT s FROM t0 WHERE s LIKE 'a_' ORDER BY s LIMIT 2",
		"SELECT k1 FROM t1 WHERE k1 = 2.0 AND k2 >= 1",
		"SELECT k FROM t2 WHERE u >= ? AND u <= ?",
		"UPDATE t0 SET a = a + 1 WHERE a >= 1 AND a < 4",
		"DELETE FROM t1 WHERE k1 = 3 AND k2 <= 2",
	} {
		f.Add(seed)
	}
	args := []val.Value{val.IntV(3), val.DoubleV(2.5), val.NullV(), val.StrV("b")}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := ParseSQL(sql)
		if err != nil {
			return
		}
		db := bruteDB(t, nil)
		s := db.NewSession()
		sel, ok := st.(*SelectStmt)
		if !ok {
			_, _ = s.ExecParsed(st, args...) // errors are fine; panics are not
			return
		}
		if len(sel.Tables) > 3 {
			return // the reference's cross product would be the test's cost
		}
		if answered, err := querySelect(db, s, sel, args); answered && err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	})
}
