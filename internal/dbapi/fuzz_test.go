package dbapi

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pyxis/internal/rpc"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// recordingTransport keeps a copy of every request and refuses it.
type recordingTransport struct{ reqs [][]byte }

func (t *recordingTransport) Call(req []byte) ([]byte, error) {
	t.reqs = append(t.reqs, append([]byte(nil), req...))
	return nil, errors.New("recorded")
}
func (t *recordingTransport) Close() error { return nil }

// clientRequests returns one request of every shape Client sends, as it
// encodes them: statements numbered and unnumbered, with and without
// their text, transaction ops and the control op, and a statement, a
// Commit and a Program carrying a begin.
func clientRequests() [][]byte {
	// The transport records each request and refuses it, so every
	// numbered statement goes out as a first touch.
	rec := &recordingTransport{}
	c := NewClient(rec)
	_, _ = c.Query("SELECT v FROM t WHERE k = ?", val.IntV(2))
	_, _ = c.Exec("INSERT INTO t VALUES (?, ?)", val.IntV(3), val.StrV("c"))
	_, _ = c.QueryStmt(0, "SELECT v FROM t WHERE k = ?", val.IntV(1))
	_, _ = c.ExecStmt(7, "UPDATE t SET v = ? WHERE k = ?", val.StrV("z"), val.NullV(), val.DoubleV(1.5))
	_, _ = c.QueryStmt(maxStmts, "SELECT v FROM t WHERE k = ?", val.IntV(1))
	_ = c.Begin() // each Begin rides the request after it
	_, _ = c.Exec("UPDATE t SET v = ? WHERE k = ?", val.StrV("y"), val.IntV(2))
	_ = c.Begin()
	_ = c.Commit()
	_ = c.Commit()
	_ = c.Rollback()
	_ = c.Begin()
	_, _ = c.Program()
	_, _ = c.Program()
	// A numbered statement as sent once the server session has its text.
	c.encodeStmt(opQuery, 0, false, "", []val.Value{val.IntV(1)})
	return append(rec.reqs, append([]byte(nil), c.enc.Buf...))
}

// TestTrailingRequestBytes: a request with bytes after its last field is
// malformed, whatever its op — the handler refuses it and runs nothing.
// One junk tail is a global transaction ID, the body the removed
// two-phase-commit ops carried.
func TestTrailingRequestBytes(t *testing.T) {
	db := setup(t)
	var gid rpc.Writer
	gid.U64(0x1122334455667788)
	for _, req := range clientRequests() {
		for _, junk := range [][]byte{nil, {0}, {1, 2, 3, 4}, gid.Buf} {
			local := NewLocal(db)
			h := newSessionHandler(local, nil)
			resp, err := h(append(req[:len(req):len(req)], junk...))
			if junk == nil && err != nil {
				t.Errorf("op %d request % x: %v", req[0], req, err)
			}
			if junk != nil && (err == nil || resp != nil) {
				t.Errorf("op %d request with %d bytes after it: answered % x, error %v", req[0], len(junk), resp, err)
			}
			_ = local.Close() // a Begin's transaction; nothing else is open
		}
	}
}

// TestUnknownOpsRefused: every op byte past opProgram names no op,
// whatever the request after it and whether or not it carries a begin.
// The handler refuses it as an unknown op with no reply, begins no
// transaction and changes nothing in the database. The range starts at
// 6: bytes 6–8 were the removed two-phase-commit commit, abort and
// status ops and 9 the program op, which moved to 5, the old prepare
// byte. The bodies are an empty one, a global transaction ID, a token,
// and a range fence over all of t's keys.
func TestUnknownOpsRefused(t *testing.T) {
	db := setup(t)
	before := db.Snapshot()
	var gid, token, fence rpc.Writer
	gid.U64(0x1122334455667788)
	token.U64(1)
	token.Bool(true)
	fence.U64(uint64(time.Hour))
	fence.U64(1 << 63) // math.MinInt64's bits
	fence.U64(math.MaxInt64)
	fence.Uvarint(1)
	fence.Str("t")
	fence.Str("k")
	for op := int(opProgram) + 1; op <= 0x7f; op++ {
		for _, first := range []byte{byte(op), byte(op) | beginFirst} {
			for _, body := range [][]byte{nil, gid.Buf, token.Buf, fence.Buf} {
				local := NewLocal(db)
				h := newSessionHandler(local, nil)
				resp, err := h(append([]byte{first}, body...))
				if err == nil || !strings.Contains(err.Error(), "unknown op") || resp != nil {
					t.Errorf("op byte %#x with a %d-byte body: answered % x, error %v", first, len(body), resp, err)
				}
				if local.Sess.InTxn() {
					t.Errorf("op byte %#x with a %d-byte body began a transaction", first, len(body))
				}
				_ = local.Close()
			}
		}
	}
	if after := db.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("unknown ops changed the database: %v, was %v", after, before)
	}
	// An INSERT and a SELECT on t still run: nothing fenced the table.
	c := NewClient(rpc.NewInProc(newSessionHandler(NewLocal(db), nil), 0))
	if _, err := c.Exec("INSERT INTO t VALUES (3, 'c')"); err != nil {
		t.Errorf("insert after the unknown ops: %v", err)
	}
	if rs, err := c.Query("SELECT v FROM t WHERE k = 1"); err != nil || len(rs.Rows) != 1 {
		t.Errorf("select after the unknown ops: %v", err)
	}
}

// FuzzSessionHandler feeds arbitrary request bytes to the handler that
// sits behind every database session's socket. The contract: a typed
// error (the frame did not decode, named no known op, or had bytes
// after its last field) or a well-formed reply (ok flag, then a result
// or an error name) — never a panic and no allocation sized by a count
// or a statement number the request merely announced, whatever the op
// byte, the lengths or the SQL say.
func FuzzSessionHandler(f *testing.F) {
	// Seeds are real requests, as Client encodes them.
	reqs := clientRequests()
	for _, req := range reqs {
		f.Add(req)
	}
	for _, req := range reqs {
		if req[0] == opQuery {
			f.Add(append(req[:len(req):len(req)], 0xde, 0xad, 0xbe, 0xef))
		}
	}
	db := setup(f)
	f.Fuzz(func(t *testing.T, req []byte) {
		sess := db.NewSession()
		defer func() {
			if sess.InTxn() {
				_ = sess.Rollback()
			}
		}()
		h := SessionHandler(sess)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		defer func() {
			// Nothing near what a count the request merely announced can
			// size.
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(req)); got > limit {
				t.Fatalf("%d request bytes made the handler allocate %d bytes (limit %d)", len(req), got, limit)
			}
		}()
		// Twice: the second call runs against the statement table and the
		// reply buffer the first one left.
		for i := 0; i < 2; i++ {
			resp, err := h(req)
			if err != nil {
				if resp != nil {
					t.Fatalf("error %v came with a reply", err)
				}
				continue
			}
			r := rpc.Reader{Buf: resp}
			if ok := r.Bool(); !ok {
				r.Str() // the error's wire name
			}
			if r.Err() != nil {
				t.Fatalf("reply % x does not decode: %v", resp, r.Err())
			}
		}
	})
}

// FuzzReadResultSet holds the table decoder to the one-pass decoder it
// replaced (readPerCell): on any bytes both fail with the same error,
// or both succeed, stop at the same offset and decode the same table —
// whatever the first pass, which validates the rows and sizes the
// string copy, and the second, which decodes them, make of it. The
// table must not change when its input buffer is overwritten.
func FuzzReadResultSet(f *testing.F) {
	for _, rows := range []int{0, 1, 20} {
		f.Add(resultTable(rows, true))
	}
	f.Add(resultTable(3, false))
	// A truncated string cell: the last one's bytes are cut short (the
	// last cell is the int 37, two bytes).
	whole := resultTable(2, true)
	f.Add(whole[:len(whole)-2-4])
	// A bad kind byte after a string cell.
	var w rpc.Writer
	w.Uvarint(2)
	w.Str("A")
	w.Str("B")
	w.Uvarint(1)
	w.Uvarint(2)
	w.Val(val.StrV("abc"))
	w.Byte(0xEE)
	w.Uvarint(1)
	f.Add(w.Buf)
	f.Fuzz(func(t *testing.T, in []byte) {
		var want, got sqldb.ResultSet
		ref := rpc.Reader{Buf: in}
		wantErr := readPerCell(&ref, &want)
		buf := bytes.Clone(in)
		r := rpc.Reader{Buf: buf}
		gotErr := ReadResultSet(&r, &got)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, the one-pass decoder's %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if r.Off != ref.Off {
			t.Fatalf("stopped at %d, the one-pass decoder at %d", r.Off, ref.Off)
		}
		for i := range buf {
			buf[i] = 0xFF
		}
		var ew, gw rpc.Writer
		WriteResultSet(&ew, &want)
		WriteResultSet(&gw, &got)
		if !bytes.Equal(gw.Buf, ew.Buf) {
			t.Fatalf("decoded % x, the one-pass decoder % x", gw.Buf, ew.Buf)
		}
	})
}
