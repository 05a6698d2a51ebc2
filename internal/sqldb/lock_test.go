package sqldb

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pyxis/internal/val"
)

// tryAcquire drives lockManager.acquire the way the scenarios below
// read: ok reports an immediate grant, and wake (which may be nil when
// the request must not queue) fires when a queued request is granted.
func tryAcquire(lm *lockManager, txn *Txn, key lockKey, mode LockMode, wake func()) (ok bool, err error) {
	wait, err := lm.acquire(txn, key, mode, func() (func(), func()) { return func() {}, wake })
	return wait == nil && err == nil, err
}

// lockDB builds a two-table database for lock-manager scenarios.
func lockDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (k INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE TABLE b (k INT PRIMARY KEY, v INT)")
	for i := 1; i <= 8; i++ {
		mustExec(t, s, "INSERT INTO a VALUES (?, 0)", val.IntV(int64(i)))
		mustExec(t, s, "INSERT INTO b VALUES (?, 0)", val.IntV(int64(i)))
	}
	return db
}

// TestLockManagerConcurrency is the table-driven concurrency suite for
// the striped lock manager: upgrades, writer conflicts, and a forced
// deadlock that must resolve by aborting one transaction rather than
// hanging. Run it under -race; the CI race job runs it with -count=2
// to shake out flaky interleavings.
func TestLockManagerConcurrency(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, db *DB)
	}{
		{"SXUpgradeSoleHolder", testSXUpgradeSoleHolder},
		{"SXUpgradeContendedWriter", testSXUpgradeContendedWriter},
		{"ConflictingWritersSerialize", testConflictingWritersSerialize},
		{"ForcedDeadlockResolves", testForcedDeadlockResolves},
		{"CrossTableDeadlockResolves", testCrossTableDeadlockResolves},
		{"QueuedUpgradeGrantedOnRelease", testQueuedUpgradeGrantedOnRelease},
		{"SoleHolderUpgradeJumpsNonEmptyQueue", testSoleHolderUpgradeJumpsNonEmptyQueue},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, lockDB(t))
		})
	}
}

// testSXUpgradeSoleHolder: a transaction that read a row (S) upgrades
// to X on the same row without deadlocking itself.
func testSXUpgradeSoleHolder(t *testing.T, db *DB) {
	s := db.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, s, "SELECT v FROM a WHERE k = 1") // S lock
	mustExec(t, s, "UPDATE a SET v = 7 WHERE k = 1")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, s, "SELECT v FROM a WHERE k = 1")
	if rs.Rows[0][0].I != 7 {
		t.Errorf("v = %v, want 7", rs.Rows[0][0])
	}
}

// testSXUpgradeContendedWriter: while t1 holds S, a writer queues for
// X; t1's own S→X upgrade must still be granted (it jumps the queue —
// the queued X could not run anyway), and the writer proceeds after t1
// commits.
func testSXUpgradeContendedWriter(t *testing.T, db *DB) {
	s1, s2 := db.NewSession(), db.NewSession()
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, s1, "SELECT v FROM a WHERE k = 2") // t1: S

	writerDone := make(chan error, 1)
	go func() {
		_, err := s2.Exec("UPDATE a SET v = 100 WHERE k = 2") // queues for X
		writerDone <- err
	}()
	waitForWaiters(t, db, 1)

	mustExec(t, s1, "UPDATE a SET v = 1 WHERE k = 2") // S→X upgrade
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("queued writer: %v", err)
	}
	rs := mustQuery(t, s1, "SELECT v FROM a WHERE k = 2")
	if rs.Rows[0][0].I != 100 {
		t.Errorf("v = %v, want 100 (writer applied after upgrade holder committed)", rs.Rows[0][0])
	}
}

// testConflictingWritersSerialize: N sessions increment one row inside
// explicit transactions; every increment must survive and waits must
// have been recorded (the writers genuinely contended).
func testConflictingWritersSerialize(t *testing.T, db *DB) {
	const workers, increments = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < increments; i++ {
				if err := s.Begin(); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Exec("UPDATE a SET v = v + 1 WHERE k = 3"); err != nil {
					t.Errorf("conflicting writer: %v", err)
					_ = s.Rollback()
					return
				}
				if err := s.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rs := mustQuery(t, db.NewSession(), "SELECT v FROM a WHERE k = 3")
	if got := rs.Rows[0][0].I; got != workers*increments {
		t.Errorf("v = %d, want %d (lost update)", got, workers*increments)
	}
}

// testForcedDeadlockResolves: the classic crossing writers on two rows
// of one table. Exactly one transaction must abort with ErrDeadlock;
// the other must complete. A hang here fails via the watchdog.
func testForcedDeadlockResolves(t *testing.T, db *DB) {
	forceDeadlock(t, db,
		[2]string{"UPDATE a SET v = v + 1 WHERE k = 4", "UPDATE a SET v = v + 1 WHERE k = 5"},
		[2]string{"UPDATE a SET v = v + 1 WHERE k = 5", "UPDATE a SET v = v + 1 WHERE k = 4"})
}

// testCrossTableDeadlockResolves: the cycle spans two tables (and so
// two different table latches and, typically, two lock stripes).
func testCrossTableDeadlockResolves(t *testing.T, db *DB) {
	forceDeadlock(t, db,
		[2]string{"UPDATE a SET v = v + 1 WHERE k = 6", "UPDATE b SET v = v + 1 WHERE k = 6"},
		[2]string{"UPDATE b SET v = v + 1 WHERE k = 6", "UPDATE a SET v = v + 1 WHERE k = 6"})
}

// testQueuedUpgradeGrantedOnRelease drives the lock manager directly
// at the grantWaiters upgrade branch: t1 and t2 both hold S, t1 queues
// for the S→X upgrade (not sole holder, so it must wait), and when t2
// releases, grantWaiters must find t1 already in holders and raise its
// mode in place — without re-appending the key to t1's lock list.
func testQueuedUpgradeGrantedOnRelease(t *testing.T, db *DB) {
	lm := db.lm
	key := lockKey{table: 1, slot: 1}
	t1, t2 := db.newTxn(), db.newTxn()

	for _, txn := range []*Txn{t1, t2} {
		if ok, err := tryAcquire(lm, txn, key, LockS, nil); !ok || err != nil {
			t.Fatalf("S acquire: ok=%v err=%v", ok, err)
		}
	}
	granted := make(chan struct{})
	ok, err := tryAcquire(lm, t1, key, LockX, func() { close(granted) })
	if ok || err != nil {
		t.Fatalf("upgrade with two S holders: ok=%v err=%v, want queued wait", ok, err)
	}
	select {
	case <-granted:
		t.Fatal("upgrade granted while a conflicting S holder remains")
	case <-time.After(10 * time.Millisecond):
	}

	lm.releaseAll(t2)
	select {
	case <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued upgrade never granted after the other holder released")
	}
	st := lm.stripeFor(key)
	st.mu.Lock()
	mode := st.locks[key].holder(t1).mode
	st.mu.Unlock()
	if mode != LockX {
		t.Errorf("granted mode = %v, want X", mode)
	}
	if len(t1.locks) != 1 {
		t.Errorf("t1 lock list has %d entries, want 1 (upgrade must not duplicate the key)", len(t1.locks))
	}
	lm.releaseAll(t1)
}

// testSoleHolderUpgradeJumpsNonEmptyQueue: t1 is the sole S holder
// with a writer already queued for X; t1's S→X upgrade is granted
// immediately past the queue (the queued X could never run under t1's
// S anyway), and the queued writer gets the lock only after t1
// releases.
func testSoleHolderUpgradeJumpsNonEmptyQueue(t *testing.T, db *DB) {
	lm := db.lm
	key := lockKey{table: 2, slot: 2}
	t1, t2 := db.newTxn(), db.newTxn()

	if ok, err := tryAcquire(lm, t1, key, LockS, nil); !ok || err != nil {
		t.Fatalf("S acquire: ok=%v err=%v", ok, err)
	}
	writerGranted := make(chan struct{})
	if ok, err := tryAcquire(lm, t2, key, LockX, func() { close(writerGranted) }); ok || err != nil {
		t.Fatalf("writer X against S holder: ok=%v err=%v, want queued wait", ok, err)
	}

	ok, err := tryAcquire(lm, t1, key, LockX, nil)
	if !ok || err != nil {
		t.Fatalf("sole-holder upgrade with non-empty queue: ok=%v err=%v, want immediate grant", ok, err)
	}
	select {
	case <-writerGranted:
		t.Fatal("queued writer granted while upgraded holder still holds X")
	case <-time.After(10 * time.Millisecond):
	}

	lm.releaseAll(t1)
	select {
	case <-writerGranted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued writer never granted after upgraded holder released")
	}
	lm.releaseAll(t2)
}

// forceDeadlock runs two transactions whose two statements cross, with
// a barrier between the first and second statements so the cycle is
// certain, and requires exactly one ErrDeadlock abort and one commit.
func forceDeadlock(t *testing.T, db *DB, stmts1, stmts2 [2]string) {
	t.Helper()
	_, beforeDL := db.LockWaits()

	var barrier sync.WaitGroup
	barrier.Add(2)
	outcome := make(chan error, 2)
	runTxn := func(stmts [2]string) {
		s := db.NewSession()
		if err := s.Begin(); err != nil {
			barrier.Done()
			outcome <- err
			return
		}
		_, err := s.Exec(stmts[0])
		barrier.Done()
		if err == nil {
			barrier.Wait() // both hold their first lock before crossing
			_, err = s.Exec(stmts[1])
		}
		if err != nil {
			if s.InTxn() {
				_ = s.Rollback()
			}
			outcome <- err
			return
		}
		outcome <- s.Commit()
	}
	go runTxn(stmts1)
	go runTxn(stmts2)

	var errs []error
	for i := 0; i < 2; i++ {
		select {
		case err := <-outcome:
			errs = append(errs, err)
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock did not resolve: transactions still blocked")
		}
	}
	var deadlocks, commits int
	for _, err := range errs {
		switch {
		case err == nil:
			commits++
		case errors.Is(err, ErrDeadlock):
			deadlocks++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 || commits != 1 {
		t.Fatalf("got %d deadlock aborts and %d commits, want exactly 1 and 1", deadlocks, commits)
	}
	if _, afterDL := db.LockWaits(); afterDL <= beforeDL {
		t.Error("deadlock counter did not increase")
	}
}

// waitForWaiters spins until the lock manager has recorded at least n
// waits (the queued goroutine really is parked).
func waitForWaiters(t *testing.T, db *DB, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w, _ := db.LockWaits(); w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lock waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLockStripeDistribution sanity-checks that the stripe hash
// spreads keys (all stripes of a modest key population are used —
// uncontended acquisitions on different rows mostly touch different
// mutexes).
func TestLockStripeDistribution(t *testing.T) {
	lm := newLockManager()
	used := map[*lockStripe]bool{}
	for tbl := 0; tbl < 8; tbl++ {
		for slot := 0; slot < 128; slot++ {
			used[lm.stripeFor(lockKey{table: uint32(tbl + 1), slot: uint32(slot)})] = true
		}
	}
	if len(used) < lockStripeCount/2 {
		t.Errorf("only %d of %d stripes used by 1024 keys", len(used), lockStripeCount)
	}
}

// TestLockCountExact pins the locks two transactions end holding, per
// table: its own lock, then its rows' modes. bestSellers' top-N reads
// every item and holds one lock, item's S. A five-line NewOrder —
// TPC-C's statements in internal/bench's order, all in one transaction
// as a budget-1 deployment runs them — holds the 20 rows it reads or
// writes plus one IX on each of the five tables it writes.
func TestLockCountExact(t *testing.T) {
	// held renders txn's locks per table name: the table's own mode and
	// a bar when it holds one, then its rows' modes, sorted.
	held := func(db *DB, txn *Txn) map[string]string {
		names := map[uint32]string{}
		for _, tb := range db.tables {
			names[tb.id] = tb.name
		}
		table, rows := map[string]string{}, map[string][]string{}
		for k, m := range heldModes(db.lm, txn) {
			if name := names[k.table]; k.slot == tableSlot {
				table[name] = m.String() + " |"
			} else {
				rows[name] = append(rows[name], m.String())
			}
		}
		got := maps.Clone(table)
		for name, ms := range rows {
			slices.Sort(ms)
			got[name] = strings.TrimSpace(table[name] + " " + strings.Join(ms, " "))
		}
		return got
	}
	check := func(what string, s *Session, want map[string]string) {
		t.Helper()
		if got := held(s.db, s.txn); !maps.Equal(got, want) {
			t.Errorf("%s holds %v, want %v", what, got, want)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	begin := func(s *Session) {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
	}

	s := tpcwDB(t, 1000)
	begin(s)
	if rs := mustQuery(t, s, bestSellers); len(rs.Rows) != 20 {
		t.Fatalf("bestSellers: %d rows", len(rs.Rows))
	}
	check("bestSellers", s, map[string]string{"ITEM": "S |"})

	db := Open()
	s = db.NewSession()
	for _, ddl := range []string{
		"CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name VARCHAR(10), w_tax DOUBLE, w_ytd DOUBLE)",
		"CREATE TABLE district (d_w_id INT, d_id INT, d_tax DOUBLE, d_ytd DOUBLE, d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))",
		"CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_last VARCHAR(16), c_discount DOUBLE, c_balance DOUBLE, PRIMARY KEY (c_w_id, c_d_id, c_id))",
		"CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_ol_cnt INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
		"CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT, PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
		"CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_quantity INT, ol_amount DOUBLE, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
		"CREATE TABLE item (i_id INT PRIMARY KEY, i_name VARCHAR(24), i_price DOUBLE)",
		"CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd DOUBLE, s_order_cnt INT, PRIMARY KEY (s_w_id, s_i_id))",
		"INSERT INTO warehouse VALUES (1, 'w', 0.1, 0.0)",
		"INSERT INTO district VALUES (1, 1, 0.1, 0.0, 1)",
		"INSERT INTO customer VALUES (1, 1, 1, 'c', 0.05, 0.0)",
	} {
		mustExec(t, s, ddl)
	}
	for i := 1; i <= 10; i++ {
		mustExec(t, s, "INSERT INTO item VALUES (?, 'item', 9.5)", intv(i))
		mustExec(t, s, "INSERT INTO stock VALUES (1, ?, 50, 0.0, 0)", intv(i))
	}
	w, d, c := intv(1), intv(1), intv(1)
	begin(s)
	mustQuery(t, s, "SELECT w_tax FROM warehouse WHERE w_id = ?", w)
	oid := mustQuery(t, s, "SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", w, d).Rows[0][1]
	mustExec(t, s, "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?", w, d)
	mustQuery(t, s, "SELECT c_discount FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", w, d, c)
	mustExec(t, s, "INSERT INTO orders VALUES (?, ?, ?, ?, ?)", w, d, oid, c, intv(5))
	mustExec(t, s, "INSERT INTO new_order VALUES (?, ?, ?)", w, d, oid)
	for ol := 1; ol <= 5; ol++ {
		iid := intv(2 * ol)
		mustQuery(t, s, "SELECT i_price, s_quantity FROM item, stock WHERE i_id = ? AND s_w_id = ? AND s_i_id = ?", iid, w, iid)
		mustExec(t, s, "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?", intv(45), intv(5), w, iid)
		mustExec(t, s, "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)", w, d, oid, intv(ol), iid, intv(5), val.DoubleV(47.5))
	}
	check("NewOrder", s, map[string]string{
		"WAREHOUSE":  "S",
		"DISTRICT":   "IX | X",
		"CUSTOMER":   "S",
		"ORDERS":     "IX | X",
		"NEW_ORDER":  "IX | X",
		"ITEM":       "S S S S S",
		"STOCK":      "IX | X X X X X",
		"ORDER_LINE": "IX | X X X X X",
	})
}
