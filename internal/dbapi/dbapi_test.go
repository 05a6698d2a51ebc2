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
		go rpc.ServeMuxConn(srvConn, MuxHandlersProgram(db, want))
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

// TestDistrictUpgradeDeadlock pins NewOrder's S→X upgrade deadlock:
// two sessions read one district row with NewOrder's query (each takes
// S on the row) and then both run NewOrder's update of it (each asks
// for X while the other holds S). The row is the only lock they could
// conflict on, since the writers' table IX locks are compatible, so the
// first update waits on the upgrade and the second closes the cycle:
// it gets the ErrDeadlock sentinel, and the first is granted X and
// commits.
func TestDistrictUpgradeDeadlock(t *testing.T) {
	db := sqldb.Open()
	for _, q := range []string{
		"CREATE TABLE district (d_w_id INT, d_id INT, d_tax DOUBLE, d_ytd DOUBLE, d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))",
		"INSERT INTO district VALUES (1, 1, 0.05, 0.0, 1)",
	} {
		if _, err := db.NewSession().Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	const (
		read   = "SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?"
		update = "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?"
	)
	w, d := val.IntV(1), val.IntV(1)
	first, second := NewLocal(db), NewLocal(db)
	for _, c := range []*Local{first, second} {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(read, w, d); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := first.Exec(update, w, d)
		blocked <- err
	}()
	// Wait until the first update is parked on the second's S lock, then
	// close the cycle.
	waitForLockWaits(t, db, 1)
	if _, err := second.Exec(update, w, d); !errors.Is(err, sqldb.ErrDeadlock) {
		t.Fatalf("second update: %v, want ErrDeadlock", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("first update after the victim aborted: %v", err)
	}
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, deadlocks := db.LockWaits(); deadlocks != 1 {
		t.Errorf("%d deadlocks, want 1", deadlocks)
	}
	rs, err := db.NewSession().Query("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1")
	if err != nil || rs.Rows[0][0].I != 2 {
		t.Fatalf("d_next_o_id = %v (err %v), want 2: one committed increment", rs.Rows, err)
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

// countedClient is a Client on a fresh session of db and the number of
// requests its session has served.
func countedClient(db *sqldb.DB) (*Client, *Local, *int) {
	local, calls := NewLocal(db), new(int)
	h := newSessionHandler(local, nil)
	return NewClient(rpc.NewInProc(func(req []byte) ([]byte, error) { *calls++; return h(req) }, 0)), local, calls
}

// TestBeginRidesNextRequest: Client.Begin sends nothing, and the next
// request, whatever its op, carries it and begins before it runs.
func TestBeginRidesNextRequest(t *testing.T) {
	v1 := func(c *Client) string {
		rs, err := c.Query("SELECT v FROM t WHERE k = 1")
		if err != nil {
			t.Fatal(err)
		}
		return rs.Rows[0][0].S
	}
	// Each op below fails, or leaves the session outside a transaction,
	// unless the session began before it ran. An update that ran before
	// the begin would have committed on its own and outlast the rollback
	// after it.
	for _, op := range []struct {
		name  string
		run   func(c *Client) error
		inTxn bool // the op leaves the begun transaction open
	}{
		{"exec", func(c *Client) error { _, err := c.Exec("UPDATE t SET v = 'x' WHERE k = 1"); return err }, true},
		{"query", func(c *Client) error {
			_, err := c.QueryStmt(0, "SELECT v FROM t WHERE k = ?", val.IntV(1))
			return err
		}, true},
		{"commit", (*Client).Commit, false},
		{"program", func(c *Client) error { _, err := c.Program(); return err }, true},
	} {
		db := setup(t)
		c, local, calls := countedClient(db)
		if err := c.Begin(); err != nil || *calls != 0 {
			t.Fatalf("%s: Begin: error %v after %d calls, want none", op.name, err, *calls)
		}
		if err := op.run(c); err != nil {
			t.Errorf("%s carrying a begin: %v", op.name, err)
		}
		if local.Sess.InTxn() != op.inTxn {
			t.Errorf("%s carrying a begin: in a transaction %v, want %v", op.name, local.Sess.InTxn(), op.inTxn)
		}
		if op.inTxn {
			if err := c.Rollback(); err != nil {
				t.Errorf("%s carrying a begin: rollback: %v", op.name, err)
			}
			if got := v1(c); got != "a" {
				t.Errorf("%s carrying a begin: k=1 is %q after the rollback, want a", op.name, got)
			}
		}
	}

	// On a session with an open transaction the begin fails, and the op
	// it rides does not run.
	db := setup(t)
	c, local, calls := countedClient(db)
	_ = c.Begin()
	if _, err := c.Exec("UPDATE t SET v = 'x' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"exec", func() error { _, err := c.Exec("UPDATE t SET v = 'y' WHERE k = 1"); return err }},
		{"commit", c.Commit},
	} {
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := op.run(); !errors.Is(err, sqldb.ErrInTransaction) {
			t.Errorf("%s carrying a begin inside a transaction: %v, want ErrInTransaction", op.name, err)
		}
		if !local.Sess.InTxn() {
			t.Errorf("%s carrying a begin inside a transaction ran: the transaction ended", op.name)
		}
		if got := v1(c); got != "x" {
			t.Errorf("%s carrying a begin inside a transaction ran: k=1 is %q, want x", op.name, got)
		}
	}

	// A second Begin before the first is sent fails here and sends
	// nothing; the first still rides the next request.
	*calls = 0
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	_ = c.Begin()
	if err := c.Begin(); !errors.Is(err, sqldb.ErrInTransaction) || *calls != 1 {
		t.Errorf("second Begin: error %v after %d calls, want ErrInTransaction after 1", err, *calls)
	}
	if err := c.Commit(); err != nil || *calls != 2 {
		t.Errorf("commit carrying the begin: error %v after %d calls, want none after 2", err, *calls)
	}

	// The first statement of a transaction carries the begin without its
	// text, and the session, a fresh one, answers ErrUnprepared after it
	// began. The re-send carries the text and no begin: one transaction.
	if _, err := c.QueryStmt(0, "SELECT v FROM t WHERE k = ?", val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	c2, local2, calls2 := countedClient(db)
	c.T = c2.T
	_ = c.Begin()
	if _, err := c.QueryStmt(0, "SELECT v FROM t WHERE k = ?", val.IntV(1)); err != nil || *calls2 != 2 {
		t.Fatalf("first touch on a fresh session: error %v after %d calls, want none after 2", err, *calls2)
	}
	if !local2.Sess.InTxn() {
		t.Fatal("the begin that rode the unprepared statement was lost")
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); !errors.Is(err, sqldb.ErrNoTransaction) {
		t.Errorf("second commit: %v, want ErrNoTransaction", err)
	}
}

// TestClientTracksTransaction: InTxn is what the server session holds,
// or a Begin waiting to ride the next request. A rollback with only a
// pending Begin drops it and sends nothing.
func TestClientTracksTransaction(t *testing.T) {
	db := setup(t)
	c, local, calls := countedClient(db)
	step := func(what string, err error, wantCalls int, want bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if *calls != wantCalls || c.InTxn() != want || local.Sess.InTxn() != want {
			t.Fatalf("%s: %d calls, InTxn %v, session in a transaction %v; want %d and %v",
				what, *calls, c.InTxn(), local.Sess.InTxn(), wantCalls, want)
		}
	}
	update := func() error { _, err := c.Exec("UPDATE t SET v = 'x' WHERE k = 1"); return err }
	step("fresh", nil, 0, false)
	step("autocommit update", update(), 1, false)
	if err := c.Begin(); err != nil || !c.InTxn() || *calls != 1 {
		t.Fatalf("Begin: error %v, InTxn %v after %d calls; want a pending begin and 1 call", err, c.InTxn(), *calls)
	}
	step("rollback of a pending begin", c.Rollback(), 1, false)
	_ = c.Begin()
	step("update carrying the begin", update(), 2, true)
	step("commit", c.Commit(), 3, false)
	_ = c.Begin()
	step("update carrying the begin", update(), 4, true)
	step("rollback", c.Rollback(), 5, false)

	// A commit the server refuses still ends it; a commit that a failed
	// begin kept from running does not.
	_ = c.Begin()
	step("update carrying the begin", update(), 6, true)
	_ = local.Sess.Rollback()
	if err := c.Commit(); !errors.Is(err, sqldb.ErrNoTransaction) || c.InTxn() {
		t.Fatalf("commit of an ended transaction: %v, InTxn %v; want ErrNoTransaction and false", err, c.InTxn())
	}
	_ = c.Begin()
	step("update carrying the begin", update(), 8, true)
	_ = c.Begin()
	if err := c.Commit(); !errors.Is(err, sqldb.ErrInTransaction) || !c.InTxn() {
		t.Fatalf("commit carrying a second begin: %v, InTxn %v; want ErrInTransaction and true", err, c.InTxn())
	}
	step("rollback", c.Rollback(), 10, false)

	// A deadlock error ends it; any other error reply, or a transport
	// error, leaves it open.
	var reply []byte
	fake := NewClient(rpc.NewInProc(func([]byte) ([]byte, error) { return reply, nil }, 0))
	for _, tc := range []struct {
		err  error
		open bool
	}{{sqldb.ErrDeadlock, false}, {sqldb.ErrDupKey, true}} {
		var w rpc.Writer
		reply = encodeErr(&w, tc.err)
		_ = fake.Begin()
		if _, err := fake.Exec("UPDATE t SET v = 'x' WHERE k = 1"); !errors.Is(err, tc.err) || fake.InTxn() != tc.open {
			t.Errorf("an update answered %v: %v, InTxn %v; want InTxn %v", tc.err, err, fake.InTxn(), tc.open)
		}
		fake.open = false
	}
	_ = fake.Begin()
	fake.T.Close()
	if _, err := fake.Exec("UPDATE t SET v = 'x' WHERE k = 1"); err == nil || !fake.InTxn() {
		t.Errorf("an update over a closed transport: %v, InTxn %v; want an error and true", err, fake.InTxn())
	}
}
