package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pyxis/internal/val"
)

// TestBoundPlanInvalidatedByConcurrentDDL loops a prepared SELECT and a
// prepared UPDATE on one table from several sessions while another
// session creates an index on the column the SELECT filters on and the
// UPDATE sets. Once CREATE INDEX has returned no stale plan may run:
// the SELECT probes the index (rows scanned per statement falls from
// the table to the group), the UPDATE holds the table latch exclusively
// (it now maintains an index), every prepared result equals the same
// query spelled differently — a separate statement with its own plan —
// inside one transaction, no update is lost, and the index agrees with
// a scan at the end.
func TestBoundPlanInvalidatedByConcurrentDDL(t *testing.T) {
	const (
		rows, groups = 512, 16
		workers      = 6
		steadyIters  = 40
	)
	db := Open()
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE t (k INT PRIMARY KEY, g INT, v INT)")
	for k := 0; k < rows; k++ {
		mustExec(t, setup, "INSERT INTO t VALUES (?, ?, 0)", intv(k), intv(k%groups))
	}
	sel := prepare(t, setup, "SELECT k, v FROM t WHERE g = ?")
	upd := prepare(t, setup, "UPDATE t SET g = g, v = v + 1 WHERE k = ?")
	const selText = "select k, v from t where g = ?" // same query, another statement object
	plan := func(st SQLStmt) *boundPlan { return st.(dmlStmt).cell().p.Load() }

	var (
		indexed  atomic.Bool // CREATE INDEX has returned
		applied  [rows]atomic.Int64
		wg       sync.WaitGroup
		steady   sync.WaitGroup // every worker has seen indexed
		scanBase atomic.Int64   // RowsScanned when the steady phase began
		once     sync.Once
	)
	steady.Add(workers)
	iteration := func(s *Session, w, i int) error {
		k := (w*131 + i*17) % rows
		if _, err := s.ExecParsed(upd, intv(k)); err != nil {
			return fmt.Errorf("prepared update: %w", err)
		}
		applied[k].Add(1)
		g := intv((w + i) % groups)
		if err := s.Begin(); err != nil {
			return err
		}
		defer s.Rollback()
		prepared, err := s.QueryParsed(sel, g)
		if err != nil {
			return fmt.Errorf("prepared select: %w", err)
		}
		text, err := s.Query(selText, g)
		if err != nil {
			return fmt.Errorf("text select: %w", err)
		}
		if len(prepared.Rows) != rows/groups || !slices.EqualFunc(prepared.Rows, text.Rows, func(a, b []val.Value) bool {
			return slices.EqualFunc(a, b, val.Value.Equal)
		}) {
			return fmt.Errorf("g=%v: prepared select returned %v, text select %v", g, prepared.Rows, text.Rows)
		}
		return nil
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			i := 0
			for ; !indexed.Load(); i++ { // races the DDL
				if err := iteration(s, w, i); err != nil {
					steady.Done()
					errs <- err
					return
				}
			}
			steady.Done()
			steady.Wait()
			once.Do(func() { scanBase.Store(db.Stats().RowsScanned) })
			for end := i + steadyIters; i < end; i++ {
				if err := iteration(s, w, i); err != nil {
					errs <- err
					return
				}
				// This session bound or found current plans just now,
				// after the bump: they must be the indexed ones.
				if p := plan(sel); p.epoch != db.epoch.Load() || p.levels[0].tree == nil {
					errs <- fmt.Errorf("select ran on a plan of epoch %d (now %d), index probe %v", p.epoch, db.epoch.Load(), p.levels[0].tree != nil)
					return
				}
				if p := plan(upd); p.epoch != db.epoch.Load() || !p.latchX {
					errs <- fmt.Errorf("update of an indexed column ran on a plan of epoch %d (now %d), exclusive %v", p.epoch, db.epoch.Load(), p.latchX)
					return
				}
			}
		}()
	}
	// Let the workers get going on unindexed plans, then build the index.
	for db.Stats().Updates < 3*workers {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	if p := plan(sel); p == nil || p.levels[0].tree != nil || plan(upd).latchX {
		t.Fatalf("before the index: select probes an index or update latches exclusively")
	}
	mustExec(t, db.NewSession(), "CREATE INDEX t_g ON t (g)")
	indexed.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Steady phase: one point update and two index probes of one group
	// per iteration, to the row.
	wantScanned := int64(workers * steadyIters * (1 + 2*rows/groups))
	if got := db.Stats().RowsScanned - scanBase.Load(); got != wantScanned {
		t.Errorf("steady phase scanned %d rows, want %d: a statement ran without the index", got, wantScanned)
	}
	check := db.NewSession()
	for k := 0; k < rows; k++ {
		rs := mustQuery(t, check, "SELECT v FROM t WHERE k = ?", intv(k))
		if got, want := rs.Rows[0][0].I, applied[k].Load(); got != want {
			t.Errorf("row %d: v = %d after %d updates", k, got, want)
		}
	}
	for g := 0; g < groups; g++ {
		byIndex := mustQuery(t, check, "SELECT k FROM t WHERE g = ? ORDER BY k", intv(g))
		byScan := mustQuery(t, check, "SELECT k FROM t WHERE g + 0 = ? ORDER BY k", intv(g))
		if len(byIndex.Rows) != rows/groups || fmt.Sprint(byIndex.Rows) != fmt.Sprint(byScan.Rows) {
			t.Errorf("group %d: index returns %v, scan %v", g, byIndex.Rows, byScan.Rows)
		}
	}
}

// TestBoundPlanStaleAfterLockWait is the one window the epoch check at
// statement start cannot see: an UPDATE bound to share the table latch
// parks on a row lock (suspending the latch), CREATE INDEX on a column
// it sets slips in, and the UPDATE wakes holding a plan that would skip
// index maintenance. It must notice the epoch, bind again and run
// under the exclusive latch.
func TestBoundPlanStaleAfterLockWait(t *testing.T) {
	db := Open()
	s1, s2 := db.NewSession(), db.NewSession()
	mustExec(t, s1, "CREATE TABLE t (k INT PRIMARY KEY, g INT)")
	for k := 0; k < 4; k++ {
		mustExec(t, s1, "INSERT INTO t VALUES (?, ?)", intv(k), intv(k))
	}
	upd := prepare(t, s2, "UPDATE t SET g = 99 WHERE k = 1")
	mustExec(t, s2, "UPDATE t SET g = 1 WHERE k = 1") // other text: upd stays unbound
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE t SET g = 1 WHERE k = 1") // s1 holds the row's X lock

	done := make(chan error, 1)
	go func() {
		_, err := s2.ExecParsed(upd) // binds shared, then parks on the row lock
		done <- err
	}()
	waitForWaiters(t, db, 1)
	if p := upd.(dmlStmt).cell().p.Load(); p == nil || p.latchX {
		t.Fatal("update should be parked on a shared-latch plan")
	}
	mustExec(t, db.NewSession(), "CREATE INDEX t_g ON t (g)") // latch is free: s2 suspended it
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p := upd.(dmlStmt).cell().p.Load(); !p.latchX || p.epoch != db.epoch.Load() {
		t.Errorf("update finished on a plan of epoch %d (now %d), exclusive %v", p.epoch, db.epoch.Load(), p.latchX)
	}
	if rs := mustQuery(t, s1, "SELECT k FROM t WHERE g = 99"); len(rs.Rows) != 1 || rs.Rows[0][0].I != 1 {
		t.Errorf("index probe for the new value returns %v, want [[1]]: the update skipped index maintenance", rs.Rows)
	}
	if rs := mustQuery(t, s1, "SELECT k FROM t WHERE g = 1"); len(rs.Rows) != 0 {
		t.Errorf("index still lists the old value: %v", rs.Rows)
	}
}

// TestJoinOrderByAccessPath: the binder places first the table it can
// probe by key. bestSellers' author join, written author first, probes
// item by its key and then author by the item's author, locking those
// two rows instead of all 100 authors; a tie keeps FROM order, so
// TPC-C's item/stock join runs as written either way round.
func TestJoinOrderByAccessPath(t *testing.T) {
	s := tpcwDB(t, 1000)
	_, stock := benchDB(t, 0)
	for _, c := range []struct {
		s     *Session
		sql   string
		order string
		args  []val.Value
	}{
		{s, authorJoin, "ITEM AUTHOR", []val.Value{intv(7)}},
		{s, "SELECT a_name FROM item, author WHERE item.i_id = ? AND a_id = i_a_id", "ITEM AUTHOR", []val.Value{intv(7)}},
		{stock, joinProbe, "ITEM STOCK", []val.Value{intv(7)}},
		{stock, "SELECT i_price, s_quantity FROM item, stock WHERE i_id = ? AND s_w_id = 1 AND s_i_id = ?", "ITEM STOCK", []val.Value{intv(7), intv(7)}},
		{stock, "SELECT i_price, s_quantity FROM stock, item WHERE i_id = ? AND s_w_id = 1 AND s_i_id = ?", "STOCK ITEM", []val.Value{intv(7), intv(7)}},
	} {
		st := prepare(t, c.s, c.sql)
		if err := c.s.Begin(); err != nil {
			t.Fatal(err)
		}
		rs, err := c.s.QueryParsed(st, c.args...)
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("%s: %v, %v", c.sql, rs, err)
		}
		if locks := len(c.s.txn.locks); locks != 2 {
			t.Errorf("%s: %d rows locked, want 2", c.sql, locks)
		}
		if err := c.s.Commit(); err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, tb := range st.(dmlStmt).cell().p.Load().tables {
			order = append(order, tb.name)
		}
		if got := strings.Join(order, " "); got != c.order {
			t.Errorf("%s: join order %s, want %s", c.sql, got, c.order)
		}
	}
}
