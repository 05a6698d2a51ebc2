package dbapi

import (
	"errors"
	"strings"
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// preparedContract runs the same statements numbered and unnumbered and
// requires identical results.
func preparedContract(t *testing.T, conn Conn) {
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
	// Errors keep identity for numbered statements too.
	if _, err := conn.ExecStmt(1, "INSERT INTO t VALUES (?, ?)", val.IntV(50), val.StrV("x")); !errors.Is(err, sqldb.ErrDupKey) {
		t.Fatalf("dup key error lost on a numbered statement: %v", err)
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

// TestPreparedWireByteSavings pins each request's shape by the bytes it
// sends, and each reply's by the bytes it brings back. A statement is
// [op][uvarint id+1][bool hasSQL][sql?][args]: a numbered one carries
// its text on its first touch and again only after the server session
// answers ErrUnprepared, an unnumbered one on every call. A query's
// reply carries its column names exactly when its request carried the
// text. Commit and Rollback are the op byte alone, answered by the ok
// flag. Begin sends nothing: it rides the next request as a bit of its
// op byte, which costs that request no byte. A number past the
// session's table bound is an error and grows no table.
func TestPreparedWireByteSavings(t *testing.T) {
	db := setup(t)
	local := &Local{Sess: db.NewSession()}
	conn := NewClient(rpc.NewInProc(newSessionHandler(local, nil), 0))
	const sel = "SELECT v FROM t WHERE k = ?"
	const (
		text       = 1 + len(sel)          // uvarint length and bytes
		args       = 1 + 1 + 1             // count, then the int 1: kind and zigzag varint
		reply      = 1 + 1 + 1 + 1 + 1 + 1 // ok, row count, the row's count, then "a": kind, length, byte
		names      = 1 + 1 + 1             // column count, then "V": length, byte
		unprepared = 1 + 1 + len("unprepared")
	)
	query := func(id int) func() error {
		return func() error { _, err := conn.QueryStmt(id, sel, val.IntV(1)); return err }
	}
	for _, c := range []struct {
		name string
		call func() error
		sent int // request bytes
		recv int // reply bytes; -1 for an error reply, whose text is not pinned
		fail bool
	}{
		{"numbered, first touch", query(0), 1 + 1 + 1 + text + args, reply + names, false},
		{"numbered, warm", query(0), 1 + 1 + 1 + args, reply, false},
		{"numbered, warm again", query(0), 1 + 1 + 1 + args, reply, false},
		{"unnumbered", query(-1), 1 + 1 + 1 + text + args, reply + names, false},
		{"unnumbered again", query(-1), 1 + 1 + 1 + text + args, reply + names, false},
		{"begin", conn.Begin, 0, 0, false},
		{"commit, carrying the begin", conn.Commit, 1, 1, false},
		{"begin", conn.Begin, 0, 0, false},
		{"numbered, warm, carrying the begin", query(0), 1 + 1 + 1 + args, reply, false},
		{"rollback", conn.Rollback, 1, 1, false},
		{"numbered, after the server session is replaced", func() error {
			conn.T = rpc.NewInProc(SessionHandler(db.NewSession()), 0)
			return query(0)()
		}, (1 + 1 + 1 + args) + (1 + 1 + 1 + text + args), unprepared + reply + names, false},
		{"numbered, warm on the new session", query(0), 1 + 1 + 1 + args, reply, false},
		{"numbered past the table bound", func() error {
			conn.T = rpc.NewInProc(newSessionHandler(local, nil), 0)
			return query(maxStmts)()
		}, 1 + 2 + 1 + text + args, -1, true},
		{"numbered far past the table bound", query(1 << 40), 1 + 6 + 1 + text + args, -1, true},
	} {
		sent, recv := conn.BytesSent, conn.BytesRecv
		if err := c.call(); (err != nil) != c.fail {
			t.Errorf("%s: error %v, want failure %v", c.name, err, c.fail)
		}
		if sent := conn.BytesSent - sent; sent != int64(c.sent) {
			t.Errorf("%s: sent %d bytes, want %d", c.name, sent, c.sent)
		}
		if recv := conn.BytesRecv - recv; c.recv >= 0 && recv != int64(c.recv) {
			t.Errorf("%s: received %d bytes, want %d", c.name, recv, c.recv)
		}
	}
	if len(local.stmts) != 1 || cap(local.stmts) > 8 {
		t.Errorf("statement table len %d cap %d: an out-of-bound number sized it", len(local.stmts), cap(local.stmts))
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

// TestPreparedWireErrorsSurface: an error for a numbered statement is
// the caller's, whatever its text — a reply cut short, a peer that
// answers "unknown op". Neither makes the statement carry its text
// again: the next call is id + args.
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

// TestQueryNamesTravelWithText: a query's reply carries its column
// names exactly when its request carried the text, and a numbered
// query without the text is read with the names the client kept. A
// reply with the text that does not decode leaves the client no names,
// so the next call carries the text again and its reply brings them.
func TestQueryNamesTravelWithText(t *testing.T) {
	db := setup(t)
	good := rpc.NewInProc(SessionHandler(db.NewSession()), 0)
	conn := NewClient(good)
	const sel = "SELECT k, v FROM t WHERE k = ?"
	check := func(what string, wantText bool) *sqldb.ResultSet {
		t.Helper()
		sent := conn.BytesSent
		rs, err := conn.QueryStmt(0, sel, val.IntV(2))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(rs.Cols) != 2 || rs.Cols[0] != "K" || rs.Cols[1] != "V" || len(rs.Rows) != 1 || rs.Rows[0][1].S != "b" {
			t.Fatalf("%s: columns %q rows %v", what, rs.Cols, rs.Rows)
		}
		if carried := conn.BytesSent-sent > int64(len(sel)); carried != wantText {
			t.Fatalf("%s: request carried the text %v, want %v", what, carried, wantText)
		}
		return rs
	}
	first := check("first touch", true)
	warm := check("warm", false)
	if &warm.Cols[0] != &first.Cols[0] {
		t.Error("a warm query's names are not the ones the client kept")
	}

	// The first touch on a fresh client, its reply cut short.
	conn = NewClient(rpc.NewInProc(func(req []byte) ([]byte, error) {
		resp, err := good.H(req)
		return resp[:len(resp)-1], err
	}, 0))
	if _, err := conn.QueryStmt(0, sel, val.IntV(2)); !errors.Is(err, rpc.ErrShortBuffer) {
		t.Fatalf("truncated first reply: %v, want rpc.ErrShortBuffer", err)
	}
	conn.T = good
	check("after a first reply that did not decode", true)
	check("warm again", false)
}
