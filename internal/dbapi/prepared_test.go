package dbapi

import (
	"errors"
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
	conn := NewClient(rpc.NewInProc(NewHandler(db), 0))
	preparedContract(t, conn)
}

// TestPreparedWireByteSavings: after the first touch, prepared calls
// carry only the statement id — strictly fewer bytes than the string
// path for the same call.
func TestPreparedWireByteSavings(t *testing.T) {
	db := setup(t)
	conn := NewClient(rpc.NewInProc(NewHandler(db), 0))
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
	conn := NewClient(rpc.NewInProc(NewHandler(db), 0))
	const sel = "SELECT v FROM t WHERE k = ?"
	if _, err := conn.QueryStmt(0, sel, val.IntV(1)); err != nil {
		t.Fatal(err)
	}
	// New handler = new server-side session with an empty statement
	// table, while the client still believes id 0 is prepared.
	conn.T = rpc.NewInProc(NewHandler(db), 0)
	rs, err := conn.QueryStmt(0, sel, val.IntV(2))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "b" {
		t.Fatalf("wrong rows after recovery: %v", rs.Rows)
	}
}

// oldHandler replicates the pre-prepared-statement server: every
// request is parsed as [op][sql][args] and unknown ops are rejected.
func oldHandler(db *sqldb.DB) rpc.Handler {
	sess := db.NewSession()
	return func(req []byte) ([]byte, error) {
		r := &rpc.Reader{Buf: req}
		op := r.Byte()
		sql := r.Str()
		args := r.Vals()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var w rpc.Writer
		switch op {
		case opExec:
			n, err := sess.Exec(sql, args...)
			if err != nil {
				return encodeErr(&rpc.Writer{}, err), nil
			}
			w.Bool(true)
			w.I64(int64(n))
		case opQuery:
			rs, err := sess.Query(sql, args...)
			if err != nil {
				return encodeErr(&rpc.Writer{}, err), nil
			}
			w.Bool(true)
			writeResultSet(&w, rs)
		default:
			return nil, errors.New("dbapi: unknown op")
		}
		return w.Buf, nil
	}
}

// TestPreparedOldPeerFallback: against a server that predates the
// prepared ops, the client must fall back to the string protocol and
// stay there.
func TestPreparedOldPeerFallback(t *testing.T) {
	db := setup(t)
	conn := NewClient(rpc.NewInProc(oldHandler(db), 0))
	const sel = "SELECT v FROM t WHERE k = ?"
	rs, err := conn.QueryStmt(0, sel, val.IntV(1))
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if rs.Rows[0][0].S != "a" {
		t.Fatalf("wrong rows over fallback: %v", rs.Rows)
	}
	if !conn.noPrepare {
		t.Error("client did not latch the string path after an old-peer error")
	}
	if _, err := conn.ExecStmt(1, "INSERT INTO t VALUES (?, ?)", val.IntV(9), val.StrV("z")); err != nil {
		t.Fatalf("string path after fallback: %v", err)
	}
}
