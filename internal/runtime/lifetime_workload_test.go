package runtime_test

import (
	"fmt"
	"testing"

	"pyxis"
	"pyxis/internal/bench"
	"pyxis/internal/compile"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// tableWatch sits on a deployment's control wire and, at every
// transfer, holds each peer to the bound the sweep promises: once a
// peer has shipped its stack it holds no more tables than that stack's
// live slots name. peak is the most tables either peer held at a
// transfer.
type tableWatch struct {
	rpc.Transport
	t       *testing.T
	app, db *runtime.Session
	peak    int
}

func (w *tableWatch) Call(req []byte) ([]byte, error) {
	w.check("APP", w.app)
	resp, err := w.Transport.Call(req)
	w.check("DB", w.db)
	return resp, err
}

func (w *tableWatch) check(side string, sn *runtime.Session) {
	w.t.Helper()
	held, live := sn.Heap.TableCount(), sn.LiveTables()
	if held > live {
		w.t.Errorf("%s holds %d tables after shipping a stack with %d live table slots", side, held, live)
	}
	w.peak = max(w.peak, held)
}

// TestTablesDieWithTheirCall runs the benchmark's programs at its
// placements, unfused and fused. At a transfer neither peer holds more
// tables than the live set it shipped. Between entry calls the APP
// heap holds none, and the DB heap none either unless the call ended
// on the APP after the DB had shipped a live table (TPC-W's
// newProducts does): nothing tells the DB that call is over, so it
// keeps that one reply's live set until its next reply, and never
// more. (At the parent commit every call left its tables on both heaps
// for the life of the session.)
func TestTablesDieWithTheirCall(t *testing.T) {
	tpcc := bench.DefaultTPCC()
	tpcw := bench.DefaultTPCW()
	i, d, b := val.IntV, val.DoubleV, val.BoolV
	tpccPart := func(f float64) (*pyxis.Partition, error) { return tpcc.PyxisPartition(f) }
	tpccCalls := func(k int64) (string, []val.Value) {
		wid, did, cid := k%int64(tpcc.Warehouses)+1, k%int64(tpcc.DistrictsPerW)+1, k%int64(tpcc.CustomersPerD)+1
		if k%3 == 2 {
			return "TPCC.payment", []val.Value{i(wid), i(did), i(cid), d(float64(k + 1))}
		}
		lines := int64(tpcc.MinLines) + k%int64(tpcc.MaxLines-tpcc.MinLines+1)
		return "TPCC.newOrder", []val.Value{i(wid), i(did), i(cid), i(lines), i(k*7919 + 1), i(int64(tpcc.Items)), b(k%10 == 9)}
	}
	tpcwCalls := func(k int64) (string, []val.Value) {
		switch k % 6 {
		case 0:
			return "TPCW.home", []val.Value{i(k%100 + 1)}
		case 1:
			return "TPCW.productDetail", []val.Value{i(k%int64(tpcw.Items) + 1)}
		case 2:
			return "TPCW.searchByTitle", []val.Value{i(k % 100)}
		case 3:
			return "TPCW.newProducts", []val.Value{i(20000000 + k%3650)}
		case 4:
			return "TPCW.bestSellers", nil
		}
		return "TPCW.orderInquiry", []val.Value{i(k%100 + 1)}
	}
	cases := []struct {
		name, class string
		budget      float64
		partition   func(budget float64) (*pyxis.Partition, error)
		load        func() *sqldb.DB
		call        func(k int64) (string, []val.Value)
		// endsOnDB: every call's last transfer is a reply that ends it, so
		// the DB heap is empty between calls as well.
		endsOnDB bool
	}{
		{"tpcc", "TPCC", 0, tpccPart, tpcc.Load, tpccCalls, true},
		{"tpcc", "TPCC", 0.5, tpccPart, tpcc.Load, tpccCalls, true},
		{"tpcc", "TPCC", 1, tpccPart, tpcc.Load, tpccCalls, true},
		{"tpcw", "TPCW", 0.5, tpcw.PyxisPartition, tpcw.Load, tpcwCalls, false},
	}
	for _, tc := range cases {
		fused, err := tc.partition(tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		unfused := *fused
		if unfused.Compiled, err = compile.Compile(fused.PyxIL); err != nil {
			t.Fatal(err)
		}
		for _, part := range []*pyxis.Partition{&unfused, fused} {
			t.Run(fmt.Sprintf("%s/budget%.1f/fused=%v", tc.name, tc.budget, part.Compiled.Fused), func(t *testing.T) {
				dep := part.Deploy(tc.load(), runtime.Options{})
				defer dep.Client.Close()
				watch := &tableWatch{Transport: dep.Client.Remote, t: t, app: dep.Client.Sess, db: dep.Sessions.Hosted()[0]}
				dep.Client.Remote = watch
				obj, err := dep.Client.NewObject(tc.class)
				if err != nil {
					t.Fatal(err)
				}
				leftOnDB := 0
				for k := int64(0); k < 36; k++ {
					method, args := tc.call(k)
					if _, err := dep.Client.CallEntry(method, obj, args...); err != nil {
						t.Fatalf("call %d %s: %v", k, method, err)
					}
					if app := watch.app.Heap.TableCount(); app != 0 {
						t.Fatalf("after call %d %s: APP holds %d tables, want none between calls", k, method, app)
					}
					db := watch.db.Heap.TableCount()
					if db > watch.db.LiveTables() || (db != 0 && tc.endsOnDB) {
						t.Fatalf("after call %d %s: DB holds %d tables, its last reply shipped %d live", k, method, db, watch.db.LiveTables())
					}
					if db != 0 {
						leftOnDB++
					}
				}
				t.Logf("most tables held by a peer at a transfer: %d; calls that left the DB its last reply's live set: %d of 36",
					watch.peak, leftOnDB)
			})
		}
	}
}
