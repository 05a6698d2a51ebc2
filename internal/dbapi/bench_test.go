package dbapi

import (
	"fmt"
	"net"
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Layer benchmarks for the database wire: one prepared operation —
// client encode, transport, handler decode, engine, reply encode,
// client decode — over rpc.InProc (the codec and the engine alone) and
// over a mux on an in-memory pipe (plus framing). Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/dbapi/
//
// TestAllocCeilings below enforces the InProc allocation counts in
// tier-1.

const benchRows = 64

// benchDB holds benchRows rows (k, g, v) with g = k/10, so g selects
// ten rows.
func benchDB(tb testing.TB) *sqldb.DB {
	tb.Helper()
	db := sqldb.Open()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE b (k INT PRIMARY KEY, g INT, v INT)"); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Exec("CREATE INDEX b_g ON b (g)"); err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < benchRows; k++ {
		if _, err := s.Exec("INSERT INTO b VALUES (?, ?, 0)", val.IntV(int64(k)), val.IntV(int64(k/10))); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// benchConn opens a Client on db over InProc or over a piped mux.
func benchConn(tb testing.TB, db *sqldb.DB, mux bool) *Client {
	tb.Helper()
	if !mux {
		return NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	}
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		rpc.ServeMuxConn(srv, MuxHandlers(db))
		close(done)
	}()
	mc := rpc.NewMuxClient(cli)
	tb.Cleanup(func() { mc.Close(); <-done })
	return NewClient(mc.Session())
}

// benchOps are the measured operations; each is warm (prepared, buffers
// sized) after one call, and calls the transport calls times. A query
// decodes into rs, which the caller keeps from call to call as the
// runtime keeps its tables. txn is a transaction around one update: its
// Begin rides the update, so it is two calls, not three.
var benchOps = []struct {
	name  string
	calls int
	run   func(c *Client, rs *sqldb.ResultSet, i int) error
}{
	{"select", 1, func(c *Client, rs *sqldb.ResultSet, i int) error {
		return c.QueryInto(rs, 0, "SELECT v FROM b WHERE k = ?", val.IntV(int64(i%benchRows)))
	}},
	{"update", 1, func(c *Client, _ *sqldb.ResultSet, i int) error {
		_, err := c.ExecStmt(1, "UPDATE b SET v = v + ? WHERE k = ?", val.IntV(1), val.IntV(int64(i%benchRows)))
		return err
	}},
	{"query10", 1, func(c *Client, rs *sqldb.ResultSet, i int) error {
		err := c.QueryInto(rs, 2, "SELECT k, v FROM b WHERE g = ?", val.IntV(int64(i%6)))
		if err == nil && len(rs.Rows) != 10 {
			err = fmt.Errorf("query10 returned %d rows", len(rs.Rows))
		}
		return err
	}},
	{"txn", 2, func(c *Client, _ *sqldb.ResultSet, i int) error {
		if err := c.Begin(); err != nil {
			return err
		}
		if _, err := c.ExecStmt(1, "UPDATE b SET v = v + ? WHERE k = ?", val.IntV(1), val.IntV(int64(i%benchRows))); err != nil {
			return err
		}
		return c.Commit()
	}},
}

func BenchmarkPrepared(b *testing.B) {
	defer rpc.ScribbleReleased(rpc.ScribbleReleased(false))
	for _, wire := range []string{"inproc", "mux"} {
		for _, op := range benchOps {
			b.Run(wire+"/"+op.name, func(b *testing.B) {
				c := benchConn(b, benchDB(b), wire == "mux")
				var rs sqldb.ResultSet
				if err := op.run(c, &rs, 0); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op.run(c, &rs, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestAllocCeilings pins what one prepared operation allocates over
// InProc, client and handler together: each ceiling is the measured
// count plus one. What is left is the engine's own (sqldb's ceilings
// are in its TestAllocCeilings: an autocommit Txn, an updated row's
// new version) — not encode buffers, readers, replies (the client
// lends its last one to the next call), result memory, column names
// or per-call codec state. It also pins each operation's transport
// calls.
func TestAllocCeilings(t *testing.T) {
	ceilings := map[string]float64{"select": 2, "update": 3, "query10": 2, "txn": 3}
	db := benchDB(t)
	for _, op := range benchOps {
		c, _, calls := countedClient(db, nil)
		var rs sqldb.ResultSet
		i := 0
		run := func() {
			if err := op.run(c, &rs, i); err != nil {
				t.Fatal(err)
			}
			i++
		}
		run()
		if got := testing.AllocsPerRun(200, run); got > ceilings[op.name] {
			t.Errorf("prepared %s over InProc: %.1f allocs, ceiling %.0f", op.name, got, ceilings[op.name])
		} else {
			t.Logf("prepared %s over InProc: %.1f allocs (ceiling %.0f)", op.name, got, ceilings[op.name])
		}
		*calls = 0
		if run(); *calls != op.calls {
			t.Errorf("prepared %s: %d transport calls, want %d", op.name, *calls, op.calls)
		}
	}
}
