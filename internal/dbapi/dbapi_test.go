package dbapi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

func setup(t testing.TB) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	s := db.NewSession()
	for _, q := range []string{
		"CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(8))",
		"INSERT INTO t VALUES (1, 'a')",
		"INSERT INTO t VALUES (2, 'b')",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// connContract exercises the Conn interface identically for local and
// remote implementations.
func connContract(t *testing.T, conn Conn) {
	t.Helper()
	rs, err := conn.Query("SELECT v FROM t WHERE k = ?", val.IntV(2))
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].S != "b" {
		t.Fatalf("query: %v %v", rs, err)
	}
	n, err := conn.Exec("INSERT INTO t VALUES (?, ?)", val.IntV(3), val.StrV("c"))
	if err != nil || n != 1 {
		t.Fatalf("exec: %d %v", n, err)
	}
	// Transaction rollback.
	if err := conn.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("UPDATE t SET v = 'zz' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs, err = conn.Query("SELECT v FROM t WHERE k = 1")
	if err != nil || rs.Rows[0][0].S != "a" {
		t.Fatalf("rollback failed: %v %v", rs, err)
	}
	// Errors cross the boundary with identity where sentinel.
	_, err = conn.Exec("INSERT INTO t VALUES (1, 'dup')")
	if !errors.Is(err, sqldb.ErrDupKey) {
		t.Fatalf("dup key error lost: %v", err)
	}
	if err := conn.Commit(); !errors.Is(err, sqldb.ErrNoTransaction) {
		t.Fatalf("commit outside txn: %v", err)
	}
	if _, err := conn.Query("SELECT nope FROM t"); err == nil {
		t.Fatal("bad query should error")
	}
}

func TestLocalConn(t *testing.T) {
	connContract(t, NewLocal(setup(t)))
}

func TestRemoteConnInProc(t *testing.T) {
	db := setup(t)
	conn := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	connContract(t, conn)
}

// TestRemoteConnTCP runs the contract over a real socket, wired as
// cmd/pyxis-dbserver wires its database port.
func TestRemoteConnTCP(t *testing.T) {
	db := setup(t)
	srv, err := rpc.NewMuxServer("127.0.0.1:0", func() rpc.SessionHandlers { return MuxHandlers(db) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := rpc.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	connContract(t, NewClient(cli.Session()))
}

// TestMuxSessionsConcurrentTxns drives many concurrent transactions
// over one multiplexed connection against the sharded engine: every
// session increments a shared hot row and its own private row inside
// an explicit transaction. No increment may be lost, and private rows
// must equal each session's committed count.
func TestMuxSessionsConcurrentTxns(t *testing.T) {
	db := sqldb.Open()
	s := db.NewSession()
	mustExec := func(sql string, args ...val.Value) {
		t.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatal(err)
		}
	}
	mustExec("CREATE TABLE hot (k INT PRIMARY KEY, v INT)")
	mustExec("CREATE TABLE own (sid INT PRIMARY KEY, v INT)")
	mustExec("INSERT INTO hot VALUES (1, 0)")

	srvConn, cliConn := net.Pipe()
	go rpc.ServeMuxConn(srvConn, MuxHandlers(db))
	mux := rpc.NewMuxClient(cliConn)
	defer mux.Close()

	const sessions, txns = 8, 15
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := NewClient(mux.Session())
			if _, err := conn.Exec("INSERT INTO own VALUES (?, 0)", val.IntV(int64(i))); err != nil {
				errs[i] = err
				return
			}
			for k := 0; k < txns; k++ {
				if err := conn.Begin(); err != nil {
					errs[i] = err
					return
				}
				_, err := conn.Exec("UPDATE hot SET v = v + 1 WHERE k = 1")
				if err == nil {
					_, err = conn.Exec("UPDATE own SET v = v + 1 WHERE sid = ?", val.IntV(int64(i)))
				}
				if err != nil {
					errs[i] = fmt.Errorf("session %d txn %d: %w", i, k, err)
					_ = conn.Rollback()
					return
				}
				if err := conn.Commit(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	rs, err := s.Query("SELECT v FROM hot WHERE k = 1")
	if err != nil || rs.Rows[0][0].I != sessions*txns {
		t.Errorf("hot row = %v (err %v), want %d (lost update over the wire)", rs.Rows, err, sessions*txns)
	}
	for i := 0; i < sessions; i++ {
		rs, err := s.Query("SELECT v FROM own WHERE sid = ?", val.IntV(int64(i)))
		if err != nil || rs.Rows[0][0].I != txns {
			t.Errorf("session %d private row = %v (err %v), want %d", i, rs.Rows, err, txns)
		}
	}
}

// TestProgramOverMux: every session of a handler set answers Program
// with the bytes the set was built with, and a set built without a
// program answers with none.
func TestProgramOverMux(t *testing.T) {
	db := setup(t)
	for _, want := range [][]byte{[]byte(`{"high":"spec"}`), nil} {
		srvConn, cliConn := net.Pipe()
		go rpc.ServeMuxConn(srvConn, MuxHandlersTxn(db, NewParticipant(0, nil), want))
		mux := rpc.NewMuxClient(cliConn)
		for i := 0; i < 2; i++ {
			conn := NewClient(mux.Session())
			got, err := conn.Program()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("session %d: program %q, want %q", i, got, want)
			}
			conn.Close()
		}
		mux.Close()
	}
}

// TestDeadlockSentinelOverMux forces a deadlock between two mux
// sessions and checks the victim receives the sqldb.ErrDeadlock
// sentinel (by identity, through the wire encoding) with its
// transaction fully rolled back server-side.
func TestDeadlockSentinelOverMux(t *testing.T) {
	db := setup(t)
	srvConn, cliConn := net.Pipe()
	go rpc.ServeMuxConn(srvConn, MuxHandlers(db))
	mux := rpc.NewMuxClient(cliConn)
	defer mux.Close()

	c1, c2 := NewClient(mux.Session()), NewClient(mux.Session())
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("UPDATE t SET v = 'x' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("UPDATE t SET v = 'y' WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := c1.Exec("UPDATE t SET v = 'x' WHERE k = 2")
		blocked <- err
	}()
	// Wait until c1 is parked on c2's lock, then close the cycle.
	waitForLockWaits(t, db, 1)
	_, err := c2.Exec("UPDATE t SET v = 'y' WHERE k = 1")
	if !errors.Is(err, sqldb.ErrDeadlock) {
		t.Fatalf("victim error = %v, want ErrDeadlock sentinel", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("survivor should proceed after victim aborts: %v", err)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	// The victim's transaction was rolled back engine-side: k=2 kept the
	// survivor's value and the victim's session is txn-free.
	if err := c2.Commit(); !errors.Is(err, sqldb.ErrNoTransaction) {
		t.Fatalf("victim session should have no open txn, got %v", err)
	}
	rs, err := db.NewSession().Query("SELECT v FROM t WHERE k = 2")
	if err != nil || rs.Rows[0][0].S != "x" {
		t.Fatalf("k=2 = %v (err %v), want survivor's value 'x'", rs.Rows, err)
	}
}

func waitForLockWaits(t *testing.T, db *sqldb.DB, n int64) {
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

// TestSessionIsolationPerConnection: two clients get independent
// transaction contexts.
func TestSessionIsolationPerConnection(t *testing.T) {
	db := setup(t)
	c1 := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	c2 := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	// c2 has no transaction open.
	if err := c2.Commit(); !errors.Is(err, sqldb.ErrNoTransaction) {
		t.Fatalf("c2 shares c1's txn: %v", err)
	}
	if err := c1.Rollback(); err != nil {
		t.Fatal(err)
	}
}
