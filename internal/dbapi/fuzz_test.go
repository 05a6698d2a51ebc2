package dbapi

import (
	"errors"
	"runtime"
	"testing"

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

// FuzzSessionHandler feeds arbitrary request bytes to the handler that
// sits behind every database session's socket. The contract: a typed
// error (the frame did not decode, or named no known op) or a
// well-formed reply (ok flag, then a result or an error name) — never
// a panic and no allocation sized by a count the request merely
// announced, whatever the op byte, the lengths or the SQL say.
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
	// The control ops, as Client encodes them; the transport records
	// the request and refuses it.
	rec := &recordingTransport{}
	cc := NewClient(rec)
	_, _ = cc.Prepare(0x1122334455667788, 0)
	_, _ = cc.Decide(1, true, 0)
	_, _ = cc.Decide(1, false, 0)
	_, _ = cc.Status(1, 0)
	_, _ = cc.Fence(sqldb.FenceSpec{Tables: map[string]string{"stock": "s_w_id", "orders": "o_w_id"}, Lo: 3, Hi: 4}, 5e9, 0)
	_ = cc.AdoptFence(1, 0)
	_ = cc.ReleaseFence(1, true, 0)
	_, _ = cc.Program()
	for _, req := range rec.reqs {
		f.Add(req)
	}
	// A fence announcing 1<<17 tables in a few bytes must not size the
	// table map by the count.
	fence := rec.reqs[4]
	f.Add(append(fence[:1+3*8:1+3*8], 0x80, 0x80, 0x08, 0, 0, 0, 0))
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
