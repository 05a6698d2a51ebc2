package sqldb

import (
	"errors"
	"fmt"
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
		{"PreparedTxnPinsLocks", testPreparedTxnPinsLocks},
		{"PreparedTxnRefusesDeadlockAbort", testPreparedTxnRefusesDeadlockAbort},
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
	key := lockKey{table: "a", slot: 1, h: fnv32("a")}
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
	key := lockKey{table: "b", slot: 2, h: fnv32("b")}
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

// testPreparedTxnPinsLocks: after Prepare2PC the session has no
// transaction (Rollback refuses with ErrNoTransaction) but the
// prepared transaction's X locks stay pinned — a conflicting writer
// queues until the coordinator's decision resolves the handle. Abort
// then restores the before-image, and the handle is idempotent.
func testPreparedTxnPinsLocks(t *testing.T, db *DB) {
	s1 := db.NewSession()
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE a SET v = 42 WHERE k = 1")
	pt, err := s1.Prepare2PC()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Rollback(); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("Rollback after prepare = %v, want ErrNoTransaction (unilateral abort refused)", err)
	}

	writerDone := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec("UPDATE a SET v = v + 1 WHERE k = 1")
		writerDone <- err
	}()
	waitForWaiters(t, db, 1)
	select {
	case err := <-writerDone:
		t.Fatalf("writer finished (%v) while prepared txn should pin the lock", err)
	case <-time.After(10 * time.Millisecond):
	}

	if err := pt.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("writer after prepared abort: %v", err)
	}
	rs := mustQuery(t, s1, "SELECT v FROM a WHERE k = 1")
	if rs.Rows[0][0].I != 1 {
		t.Errorf("v = %v, want 1 (undo of prepared update, then writer's +1)", rs.Rows[0][0])
	}
	if err := pt.Abort(); err != nil {
		t.Errorf("duplicate Abort = %v, want nil (idempotent)", err)
	}
	if err := pt.Commit(); !errors.Is(err, ErrTxnResolved) {
		t.Errorf("Commit after Abort = %v, want ErrTxnResolved", err)
	}
}

// testPreparedTxnRefusesDeadlockAbort: a prepared transaction never
// requests locks, so it can never sit in a waits-for cycle — deadlock
// resolution among live transactions must pick one of *them* as victim
// and leave the prepared txn's locks untouched. With a prepared X on
// b[1] pinned, a forced deadlock on other rows resolves normally, a
// writer on b[1] stays queued throughout, and the coordinator's commit
// finally publishes the prepared write.
func testPreparedTxnRefusesDeadlockAbort(t *testing.T, db *DB) {
	s1 := db.NewSession()
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE b SET v = 9 WHERE k = 1")
	pt, err := s1.Prepare2PC()
	if err != nil {
		t.Fatal(err)
	}

	writerDone := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec("UPDATE b SET v = v + 1 WHERE k = 1")
		writerDone <- err
	}()
	waitForWaiters(t, db, 1)

	forceDeadlock(t, db,
		[2]string{"UPDATE a SET v = v + 1 WHERE k = 4", "UPDATE a SET v = v + 1 WHERE k = 5"},
		[2]string{"UPDATE a SET v = v + 1 WHERE k = 5", "UPDATE a SET v = v + 1 WHERE k = 4"})

	if done, _ := pt.Resolved(); done {
		t.Fatal("prepared txn resolved by deadlock machinery; only the coordinator may finish it")
	}
	select {
	case err := <-writerDone:
		t.Fatalf("queued writer finished (%v) while the prepared txn should still pin b[1]", err)
	default:
	}

	if err := pt.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("writer after prepared commit: %v", err)
	}
	rs := mustQuery(t, s1, "SELECT v FROM b WHERE k = 1")
	if rs.Rows[0][0].I != 10 {
		t.Errorf("v = %v, want 10 (prepared write 9 committed, then writer's +1)", rs.Rows[0][0])
	}
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
		name := fmt.Sprintf("T%d", tbl)
		for slot := 0; slot < 128; slot++ {
			used[lm.stripeFor(lockKey{table: name, slot: slot, h: fnv32(name)})] = true
		}
	}
	if len(used) < lockStripeCount/2 {
		t.Errorf("only %d of %d stripes used by 1024 keys", len(used), lockStripeCount)
	}
}
