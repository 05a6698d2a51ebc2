package dbapi

import (
	goruntime "runtime"
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestRecycledResultDecode: Client.QueryInto decodes each reply into
// the caller's result set, in the same memory and with the column names
// of the statement's last reply. A row held from the previous result
// reads garbage once the next one is decoded (the package's TestMain
// turns rpc.ScribbleReleased on, and val.Released with it). The
// allocating QueryStmt is the same decoder on a fresh result set.
func TestRecycledResultDecode(t *testing.T) {
	db := benchDB(t)
	c := NewClient(rpc.NewInProc(SessionHandler(db.NewSession()), 0))
	const q = "SELECT k, v FROM b WHERE g = ? AND k < ?"
	var rs sqldb.ResultSet
	if err := c.QueryInto(&rs, 0, q, val.IntV(1), val.IntV(12)); err != nil || len(rs.Rows) != 2 {
		t.Fatalf("%v rows, err %v", rs.Rows, err)
	}
	cols, mem, held := rs.Cols, &rs.Rows[0][0], rs.Rows[1]
	if err := c.QueryInto(&rs, 0, q, val.IntV(1), val.IntV(11)); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("%v rows, err %v", rs.Rows, err)
	}
	if &rs.Cols[0] != &cols[0] {
		t.Errorf("column names %v were decoded again", rs.Cols)
	}
	if &rs.Rows[0][0] != mem || rs.Rows[0][0] != val.IntV(10) {
		t.Errorf("refilled row %v, want k = 10 in the first result's memory", rs.Rows[0])
	}
	if held[0].K == val.Int {
		t.Errorf("a row of the released result still reads %v", held)
	}
	fresh, err := c.QueryStmt(0, q, val.IntV(1), val.IntV(12))
	if err != nil || len(fresh.Rows) != 2 || fresh.Rows[1][0] != val.IntV(11) || &fresh.Rows[0][0] == &rs.Rows[0][0] {
		t.Fatalf("QueryStmt: %v, err %v; want its own two rows", fresh.Rows, err)
	}
}

// readPerCell is the table decoder before ReadResultSet copied a
// table's strings once: one pass, a string apiece (rpc.Reader.Val).
// The tests and the fuzz target hold ReadResultSet to it.
func readPerCell(r *rpc.Reader, dst *sqldb.ResultSet) error {
	dst.Reset()
	if dst.Cols = r.Strs(dst.Cols); r.Err() != nil {
		return r.Err()
	}
	nrows := r.Uvarint()
	if r.Err() != nil || nrows > uint64(len(r.Buf)-r.Off) {
		return rpc.ErrShortBuffer
	}
	for i := uint64(0); i < nrows; i++ {
		n, ok := r.ValsLen()
		if !ok {
			break
		}
		row := dst.NewRow(n)
		for j := range row {
			row[j] = r.Val()
		}
	}
	return r.Err()
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of run allocates, on average over runs calls, after a warm-up.
func bytesPerRun(runs int, run func()) float64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	run()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadResultSetOwnsStrings: the table decoder copies every string
// cell out of the buffer it reads, so the owner may overwrite the
// buffer (it lends it to its next call) and the table still reads the
// same. The copy is one allocation for a table with string cells, none
// for a table of ints, and no more bytes than a string apiece.
func TestReadResultSetOwnsStrings(t *testing.T) {
	buf := resultTable(20, true)
	var want, got sqldb.ResultSet
	if err := readPerCell(&rpc.Reader{Buf: buf}, &want); err != nil {
		t.Fatal(err)
	}
	if err := ReadResultSet(&rpc.Reader{Buf: buf}, &got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows decoded, want %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		for j, v := range row {
			if v != want.Rows[i][j] {
				t.Errorf("row %d cell %d reads %v once the buffer is overwritten, want %v", i, j, v, want.Rows[i][j])
			}
		}
	}

	for _, tc := range []struct {
		strs bool
		want float64
	}{{true, 1}, {false, 0}} {
		if got := testing.AllocsPerRun(200, decodeTable(t, resultTable(20, tc.strs), ReadResultSet)); got != tc.want {
			t.Errorf("decode of 20 rows (string cells %v): %.1f allocs, want %.0f", tc.strs, got, tc.want)
		}
	}
	for _, rows := range []int{1, 20} {
		table := resultTable(rows, true)
		once := bytesPerRun(1000, decodeTable(t, table, ReadResultSet))
		apiece := bytesPerRun(1000, decodeTable(t, table, readPerCell))
		if once > apiece {
			t.Errorf("decode of %d rows: %.0f B, a string apiece %.0f B", rows, once, apiece)
		} else {
			t.Logf("decode of %d rows: %.0f B, a string apiece %.0f B", rows, once, apiece)
		}
	}
}

// TestNewRowRefillWritesEveryCell: ResultSet.NewRow hands out a row it
// does not clear, so each filler — the engine's projection copy, its
// aggregates (MIN, MAX and AVG of no rows included) and the table
// decoder — must write every cell. Each refills a result set that held
// a wider and longer result, whose released values read garbage under
// val.ScribbleReleased, and must read exactly as a fresh result set.
func TestNewRowRefillWritesEveryCell(t *testing.T) {
	defer val.ScribbleReleased(val.ScribbleReleased(true))
	s := benchDB(t).NewSession()
	stmt := func(q string) sqldb.SQLStmt {
		st, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	query := func(q string, g int64) func(*sqldb.ResultSet) error {
		st := stmt(q)
		return func(rs *sqldb.ResultSet) error { return s.QueryInto(rs, st, val.IntV(g)) }
	}
	table := resultTable(3, true)
	wide := stmt("SELECT k, g, v, k, g, v FROM b")
	for _, tc := range []struct {
		what string
		fill func(*sqldb.ResultSet) error
	}{
		{"projection", query("SELECT v, k FROM b WHERE g = ?", 1)},
		{"aggregates", query("SELECT COUNT(*), SUM(k), AVG(k), MIN(k), MAX(k) FROM b WHERE g = ?", 2)},
		{"aggregates of no rows", query("SELECT COUNT(*), SUM(k), AVG(k), MIN(k), MAX(k) FROM b WHERE g = ?", 99)},
		{"decoder", func(rs *sqldb.ResultSet) error { return ReadResultSet(&rpc.Reader{Buf: table}, rs) }},
	} {
		var want, got sqldb.ResultSet
		if err := tc.fill(&want); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if err := s.QueryInto(&got, wide); err != nil || len(got.Rows) != benchRows {
			t.Fatalf("wide result: %d rows, err %v", len(got.Rows), err)
		}
		if err := tc.fill(&got); err != nil {
			t.Fatalf("%s refill: %v", tc.what, err)
		}
		if len(got.Rows) != len(want.Rows) || len(got.Rows) == 0 {
			t.Fatalf("%s: %d rows refilled, %d fresh", tc.what, len(got.Rows), len(want.Rows))
		}
		for i, row := range got.Rows {
			if len(row) != len(want.Rows[i]) {
				t.Fatalf("%s: row %d has %d cells, want %d", tc.what, i, len(row), len(want.Rows[i]))
			}
			for j, v := range row {
				if v != want.Rows[i][j] {
					t.Errorf("%s: row %d cell %d reads %v, fresh %v", tc.what, i, j, v, want.Rows[i][j])
				}
			}
		}
	}
}
