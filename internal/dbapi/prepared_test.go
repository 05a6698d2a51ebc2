package dbapi

import (
	"errors"
	"strings"
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// preparedContract runs the same statements over the prepared and
// string paths and requires identical results.
func preparedContract(t *testing.T, conn PreparedConn) {
	t.Helper()
	const sel = "SELECT v FROM t WHERE k = ?"
	for i := 0; i < 3; i++ {
		got, err := conn.QueryStmt(0, sel, val.IntV(1))
		if err != nil {
			t.Fatalf("QueryStmt: %v", err)
		}
		want, err := conn.Query(sel, val.IntV(1))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if len(got.Rows) != len(want.Rows) || got.Rows[0][0].S != want.Rows[0][0].S {
			t.Fatalf("prepared %v vs string %v", got.Rows, want.Rows)
		}
	}
	n, err := conn.ExecStmt(1, "INSERT INTO t VALUES (?, ?)", val.IntV(50), val.StrV("x"))
	if err != nil || n != 1 {
		t.Fatalf("ExecStmt: %d %v", n, err)
	}
	// Errors keep identity over the prepared path too.
	if _, err := conn.ExecStmt(1, "INSERT INTO t VALUES (?, ?)", val.IntV(50), val.StrV("x")); !errors.Is(err, sqldb.ErrDupKey) {
		t.Fatalf("dup key error lost on prepared path: %v", err)
	}
}

func TestLocalPreparedConn(t *testing.T) {
	preparedContract(t, NewLocal(setup(t)))
}

func TestClientPreparedWire(t *testing.T) {
	db := setup(t)
	conn := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	preparedContract(t, conn)
}

// TestPreparedWireByteSavings: after the first touch, prepared calls
// carry only the statement id — strictly fewer bytes than the string
// path for the same call.
func TestPreparedWireByteSavings(t *testing.T) {
	db := setup(t)
	conn := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	const sel = "SELECT v FROM t WHERE k = ?"

	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	base := conn.BytesSent
	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	preparedCost := conn.BytesSent - base

	base = conn.BytesSent
	if _, err := conn.Query(sel, val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	stringCost := conn.BytesSent - base

	if preparedCost >= stringCost {
		t.Fatalf("prepared call cost %d bytes, string call %d — no savings", preparedCost, stringCost)
	}
	if preparedCost > 16 {
		t.Errorf("prepared call cost %d bytes; want id+args only (≤16)", preparedCost)
	}
}

// TestPreparedUnpreparedRecovery: a server session that never saw the
// statement (here: the client's transport is repointed at a fresh
// handler) answers ErrUnprepared; the client must transparently
// re-send the text and succeed.
func TestPreparedUnpreparedRecovery(t *testing.T) {
	db := setup(t)
	conn := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	const sel = "SELECT v FROM t WHERE k = ?"
	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	// New handler = new server-side session with an empty statement
	// table, while the client still believes id 0 is prepared.
	conn.T = rpc.NewInProc(SessionHandler(db.NewSession()), 0)
	rs, err := conn.QueryStmt(0, sel, val.IntV(2))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "b" {
		t.Fatalf("wrong rows after recovery: %v", rs.Rows)
	}
}

// TestPreparedWireErrorsSurface: an error from the prepared wire is
// the caller's, whatever its text — a reply cut short, a peer that
// answers "unknown op". Neither moves the connection off the prepared
// wire: the next call is id + args again.
func TestPreparedWireErrorsSurface(t *testing.T) {
	db := setup(t)
	good := rpc.NewInProc(SessionHandler(db.NewSession()), 0)
	conn := NewClient(good)
	const sel = "SELECT v FROM t WHERE k = ?"
	const ins = "INSERT INTO t VALUES (?, ?)"
	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ExecStmt(1, ins, val.IntV(60), val.StrV("x")); err != nil {
		t.Fatal(err)
	}

	// A query reply truncated inside the result set.
	conn.T = rpc.NewInProc(func(req []byte) ([]byte, error) {
		resp, err := good.H(req)
		return resp[:len(resp)-3], err
	}, 0)
	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); !errors.Is(err, rpc.ErrShortBuffer) {
		t.Fatalf("truncated reply: QueryStmt error %v, want rpc.ErrShortBuffer", err)
	}
	// A peer that rejects the request outright.
	conn.T = rpc.NewInProc(func([]byte) ([]byte, error) { return nil, errors.New("dbapi: unknown op 6") }, 0)
	if _, err := conn.ExecStmt(1, ins, val.IntV(61), val.StrV("y")); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("rejected request: ExecStmt error %v, want the peer's", err)
	}
	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("rejected request: QueryStmt error %v, want the peer's", err)
	}

	// Back on a healthy wire both statements still go as id + args.
	conn.T = good
	for _, call := range []func() error{
		func() error { _, err := conn.QueryStmt(0, sel, val.IntV(1)); return err },
		func() error { _, err := conn.ExecStmt(1, ins, val.IntV(62), val.StrV("z")); return err },
	} {
		base := conn.BytesSent
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if cost := conn.BytesSent - base; cost > 32 {
			t.Errorf("call after the errors cost %d bytes: the statement text is on the wire again", cost)
		}
	}
}
