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

// resultTable encodes a result of rows rows shaped like TPC-W's best
// sellers: an item's id, title, author and sales, the middle two string
// cells when strs is set and ints otherwise.
func resultTable(rows int, strs bool) []byte {
	rs := sqldb.ResultSet{Cols: []string{"I_ID", "I_TITLE", "A_NAME", "I_TOTAL_SOLD"}}
	for i := 0; i < rows; i++ {
		row := []val.Value{val.IntV(int64(i)), val.IntV(int64(i % 7)), val.IntV(int64(i % 100)), val.IntV(int64(i * 37 % 500))}
		if strs {
			row[1], row[2] = val.StrV(fmt.Sprintf("book title %d", i)), val.StrV(fmt.Sprintf("author-%d", i%100))
		}
		rs.Rows = append(rs.Rows, row)
	}
	var w rpc.Writer
	WriteResultSet(&w, &rs)
	return w.Buf
}

// decodeTable returns a function that decodes buf with decode into one
// result set it keeps from call to call, as the runtime keeps its
// synced tables.
func decodeTable(tb testing.TB, buf []byte, decode func(*rpc.Reader, *sqldb.ResultSet) error) func() {
	var rs sqldb.ResultSet
	return func() {
		r := rpc.Reader{Buf: buf}
		if err := decode(&r, &rs); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkReadResultSet is the table decoder alone, on a table of one
// row and of twenty, two string cells a row.
func BenchmarkReadResultSet(b *testing.B) {
	defer rpc.ScribbleReleased(rpc.ScribbleReleased(false))
	for _, rows := range []int{1, 20} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			run := decodeTable(b, resultTable(rows, true), ReadResultSet)
			run()
			b.ReportAllocs()
			for b.Loop() {
				run()
			}
		})
	}
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
// are in its TestAllocCeilings: an updated row's new version; every
// transaction reuses its session's last Txn) — not encode buffers,
// readers, replies (the client lends its last one to the next call),
// result memory, column names or per-call codec state. It also pins
// each operation's transport calls, and the decoder's own rows.
func TestAllocCeilings(t *testing.T) {
	ceilings := map[string]float64{"select": 1, "update": 2, "query10": 1, "txn": 2}
	db := benchDB(t)
	for _, op := range benchOps {
		c, _, calls := countedClient(db)
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
	// One copy of the table's strings, whatever its rows.
	for _, rows := range []int{1, 20} {
		run := decodeTable(t, resultTable(rows, true), ReadResultSet)
		run()
		if got, ceiling := testing.AllocsPerRun(200, run), 2.0; got > ceiling {
			t.Errorf("decode of %d rows: %.1f allocs, ceiling %.0f", rows, got, ceiling)
		} else {
			t.Logf("decode of %d rows: %.1f allocs (ceiling %.0f)", rows, got, ceiling)
		}
	}
}
