package sqldb

import (
	"testing"
	"time"

	"pyxis/internal/val"
)

// signalWaits returns a wait point that reports each enqueue on the
// returned channel before its waiter parks.
func signalWaits() (WaitPointFunc, chan struct{}) {
	enqueued := make(chan struct{}, 1)
	return func() (func(), func()) {
		wait, wake := chanWaitPoint()
		enqueued <- struct{}{}
		return wait, wake
	}, enqueued
}

// TestRecycledTxnNoFalseDeadlock: a session reuses its finished Txn
// for its next transaction. A waiter keeps its waits-for edge to a
// transaction that has since finished, and the finished transaction's
// session then starts a new one, on the same Txn, that waits on that
// waiter. The waits-for graph names transactions by ID and the reused
// Txn has a fresh one, so the stale edge does not close a cycle through
// the new transaction: it must wait, not be refused as a deadlock, and
// every transaction must commit.
func TestRecycledTxnNoFalseDeadlock(t *testing.T) {
	db := Open()
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE r (k INT PRIMARY KEY, v INT)")
	mustExec(t, setup, "INSERT INTO r VALUES (1, 0)")
	mustExec(t, setup, "INSERT INTO r VALUES (2, 0)")
	a, b, c := db.NewSession(), db.NewSession(), db.NewSession()
	var aEnq, bEnq chan struct{}
	a.WaitPoint, aEnq = signalWaits()
	b.WaitPoint, bEnq = signalWaits()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func(s *Session) {
		t.Helper()
		must(s.Begin())
		mustQuery(t, s, "SELECT v FROM r WHERE k = 1")
	}
	async := func(s *Session, sql string) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := s.Exec(sql)
			done <- err
		}()
		return done
	}
	await := func(name string, ch chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never waited", name)
		}
	}

	read(a) // A and C share row 1
	read(c)
	must(b.Begin())
	mustExec(t, b, "UPDATE r SET v = 1 WHERE k = 2")
	bDone := async(b, "UPDATE r SET v = 1 WHERE k = 1") // waits on A and C
	await("B", bEnq)
	must(a.Commit()) // B still waits on C; its edge to A's Txn is stale

	// A new Txn on A's recycled lists waits on B.
	must(a.Begin())
	aDone := async(a, "UPDATE r SET v = 2 WHERE k = 2")
	select {
	case err := <-aDone:
		t.Fatalf("A's second transaction did not wait for B: %v", err)
	case <-aEnq:
	case <-time.After(5 * time.Second):
		t.Fatal("A's second transaction never waited")
	}

	must(c.Commit()) // grants B
	if err := <-bDone; err != nil {
		t.Fatalf("B: %v", err)
	}
	must(b.Commit()) // grants A
	if err := <-aDone; err != nil {
		t.Fatalf("A: %v", err)
	}
	must(a.Commit())
	if _, deadlocks := db.LockWaits(); deadlocks != 0 {
		t.Errorf("%d deadlocks reported, want 0", deadlocks)
	}
	checkLockTable(t, db.lm)
	rs := mustQuery(t, setup, "SELECT v FROM r WHERE k = 2")
	if got := rs.Rows[0][0]; got != val.IntV(2) {
		t.Errorf("row 2 holds %v, want A's 2", got)
	}
}

// TestRecycledResultScribbled: a result set refilled by QueryInto
// releases its old rows first, so under val.ScribbleReleased a row held
// from the previous result that the new one does not overwrite reads
// garbage, not a stale value.
func TestRecycledResultScribbled(t *testing.T) {
	defer val.ScribbleReleased(val.ScribbleReleased(true))
	s := Open().NewSession()
	mustExec(t, s, "CREATE TABLE q (k INT PRIMARY KEY, v VARCHAR(8))")
	mustExec(t, s, "INSERT INTO q VALUES (1, 'one')")
	mustExec(t, s, "INSERT INTO q VALUES (2, 'two')")
	st, err := s.Prepare("SELECT v FROM q WHERE k <= ? ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	var rs ResultSet
	if err := s.QueryInto(&rs, st, val.IntV(2)); err != nil || len(rs.Rows) != 2 {
		t.Fatalf("%v rows, err %v", rs.Rows, err)
	}
	held := rs.Rows[1]
	if err := s.QueryInto(&rs, st, val.IntV(1)); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("%v rows, err %v", rs.Rows, err)
	}
	if got := rs.Rows[0][0]; got != val.StrV("one") {
		t.Errorf("refilled row reads %v, want one", got)
	}
	if held[0].K == val.Str {
		t.Errorf("a row of the released result still reads %v", held[0])
	}
}
