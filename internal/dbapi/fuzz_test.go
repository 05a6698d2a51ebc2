package dbapi

import (
	"testing"

	"pyxis/internal/rpc"
	"pyxis/internal/val"
)

// FuzzSessionHandler feeds arbitrary request bytes to the handler that
// sits behind every database session's socket. The contract: a typed
// error (the frame did not decode, or named no known op) or a
// well-formed reply (ok flag, then a result or an error name) — never
// a panic, whatever the op byte, the lengths or the SQL say.
func FuzzSessionHandler(f *testing.F) {
	// Seeds are real requests, as Client encodes them.
	var c Client
	for _, enc := range []func(){
		func() { c.encode(opQuery, "SELECT v FROM t WHERE k = ?", []val.Value{val.IntV(2)}) },
		func() { c.encode(opExec, "INSERT INTO t VALUES (?, ?)", []val.Value{val.IntV(3), val.StrV("c")}) },
		func() { c.encode(opBegin, "", nil) },
		func() { c.encode(opCommit, "", nil) },
		func() { c.encode(opRollback, "", nil) },
		func() {
			c.encodePrepared(opPrepQuery, 0, true, "SELECT v FROM t WHERE k = ?", []val.Value{val.IntV(1)})
		},
		func() { c.encodePrepared(opPrepQuery, 0, false, "", []val.Value{val.IntV(1)}) },
		func() {
			c.encodePrepared(opPrepExec, 7, true, "UPDATE t SET v = ? WHERE k = ?", []val.Value{val.StrV("z"), val.NullV(), val.DoubleV(1.5)})
		},
	} {
		enc()
		f.Add(append([]byte(nil), c.enc.Buf...))
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
