package runtime_test

import (
	goruntime "runtime"
	"testing"

	"pyxis/internal/bench"
	"pyxis/internal/pdg"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// Layer benchmarks for the runtime: what one transaction costs between
// the client's CallEntry and the SQL engine, with both peers in one
// process and rpc.InProc for a wire (a function call). Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/runtime/
//
// TestAllocCeilings below enforces the allocation counts in tier-1.

// newOrderSP deploys TPC-C at budget 1, the stored-procedure placement
// of the benchmark's tpcc-sp-lan, and returns a function that runs the
// next NewOrder: five lines, committed.
func newOrderSP(tb testing.TB) func() { return newOrderAt(tb, 1) }

// newOrderAt is newOrderSP at any budget: 0 is the JDBC-style placement
// of tpcc-jdbc-lan, where every statement is an APP-side database call
// over rpc.InProc, and 0.5 the split one of tpcc-mid-wan.
func newOrderAt(tb testing.TB, budget float64) func() {
	run, _ := newOrderOn(tb, budget)
	return run
}

// newOrderOn is newOrderAt, also returning the deployment's database.
func newOrderOn(tb testing.TB, budget float64) (func(), *sqldb.DB) {
	tb.Helper()
	cfg := bench.DefaultTPCC()
	part, err := cfg.PyxisPartition(budget)
	if err != nil {
		tb.Fatal(err)
	}
	dep := part.Deploy(cfg.Load(), runtime.Options{})
	tb.Cleanup(func() { dep.Client.Close() })
	obj, err := dep.Client.NewObject("TPCC")
	if err != nil {
		tb.Fatal(err)
	}
	args := make([]val.Value, 7)
	k := int64(0)
	return func() {
		args[0] = val.IntV(k%int64(cfg.Warehouses) + 1)
		args[1] = val.IntV(k%int64(cfg.DistrictsPerW) + 1)
		args[2] = val.IntV(k%int64(cfg.CustomersPerD) + 1)
		args[3] = val.IntV(5)
		args[4] = val.IntV(k*7919 + 1)
		args[5] = val.IntV(int64(cfg.Items))
		args[6] = val.BoolV(false)
		k++
		if _, err := dep.Client.CallEntry("TPCC.newOrder", obj, args...); err != nil {
			tb.Fatal(err)
		}
	}, dep.DB
}

// browsingMix deploys TPC-W at budget 0.5, the placement of
// tpcw-mid-lan, and returns a function that runs the browsing mix's six
// interactions in turn: 31 queries, 21 of them bestSellers' loop, and
// 26 control-transfer round trips.
func browsingMix(tb testing.TB) func() {
	tb.Helper()
	cfg := bench.DefaultTPCW()
	part, err := cfg.PyxisPartition(0.5)
	if err != nil {
		tb.Fatal(err)
	}
	dep := part.Deploy(cfg.Load(), runtime.Options{})
	tb.Cleanup(func() { dep.Client.Close() })
	obj, err := dep.Client.NewObject("TPCW")
	if err != nil {
		tb.Fatal(err)
	}
	entries := []string{"TPCW.home", "TPCW.productDetail", "TPCW.searchByTitle", "TPCW.newProducts", "TPCW.bestSellers", "TPCW.orderInquiry"}
	arg := make([]val.Value, 1)
	k := int64(0)
	return func() {
		for _, m := range entries {
			args := arg
			switch m {
			case "TPCW.home", "TPCW.orderInquiry":
				args[0] = val.IntV(k%100 + 1)
			case "TPCW.productDetail":
				args[0] = val.IntV(k%int64(cfg.Items) + 1)
			case "TPCW.searchByTitle":
				args[0] = val.IntV(k % 100)
			case "TPCW.newProducts":
				// The loader dates item i 20000000 + i%3650, so with
				// cfg.Items <= 3650 this walks the dated range and wraps
				// with it, as productDetail wraps the items: the per-op
				// work repeats every cfg.Items mixes, whatever b.N is.
				args[0] = val.IntV(20000000 + k%int64(cfg.Items))
			default:
				args = nil
			}
			if _, err := dep.Client.CallEntry(m, obj, args...); err != nil {
				tb.Fatal(err)
			}
		}
		k++
	}
}

// transferRoundTrip returns a function that makes one entry call of
// the loop program, which is one control transfer each way and a
// handful of blocks: two frames and a dirty object part go to the DB,
// the same come back.
func transferRoundTrip(tb testing.TB) func() {
	tb.Helper()
	dep := runtime.NewDeployment(runtime.LoopProgram(tb), sqldb.Open(), runtime.Options{})
	tb.Cleanup(func() { dep.Client.Close() })
	obj, err := dep.Client.NewObject("L")
	if err != nil {
		tb.Fatal(err)
	}
	one := val.IntV(1)
	return func() {
		if _, err := dep.Client.CallEntry("L.run", obj, one); err != nil {
			tb.Fatal(err)
		}
	}
}

// transferLoop returns a function that makes one entry call of the
// loop program that transfers sixteen times each way: every transfer
// after the first shares the caller frame both sides keep, and ships
// the loop counter, the callee's frame and the dirty object part.
func transferLoop(tb testing.TB) func() {
	tb.Helper()
	dep := runtime.NewDeployment(runtime.LoopProgram(tb), sqldb.Open(), runtime.Options{})
	tb.Cleanup(func() { dep.Client.Close() })
	obj, err := dep.Client.NewObject("L")
	if err != nil {
		tb.Fatal(err)
	}
	n := val.IntV(16)
	return func() {
		if _, err := dep.Client.CallEntry("L.run", obj, n); err != nil {
			tb.Fatal(err)
		}
	}
}

// tableSweep returns a function that gives a session what a budget-1
// NewOrder leaves its DB session to sweep, its 8 dead result tables
// (TestNewOrderCounts), plus one that a shipped slot still names, and
// sweeps it. The refill takes each table off the heap's free list and
// is a map insert per table; both are part of the number.
func tableSweep(tb testing.TB) func() {
	sn := runtime.NewPeer(runtime.LoopProgram(tb), pdg.DB, nil).NewSession(nil)
	return func() {
		sn.FillTables(8, 1)
		sn.SweepTables()
	}
}

func loop(b *testing.B, run func()) {
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkNewOrderSP is one NewOrder at budget 1: one control transfer
// each way, 21 statements on the DB peer's embedded connection, 8
// result tables filled and recycled.
func BenchmarkNewOrderSP(b *testing.B) { loop(b, newOrderSP(b)) }

// BenchmarkNewOrderJDBC is one NewOrder at budget 0: every statement,
// the begin and the commit are APP-side calls over the database wire,
// so the APP decodes each result and the server encodes it.
func BenchmarkNewOrderJDBC(b *testing.B) { loop(b, newOrderAt(b, 0)) }

// BenchmarkNewOrderMid is one NewOrder at budget 0.5: statements on
// both sides and a control transfer per item line.
func BenchmarkNewOrderMid(b *testing.B) { loop(b, newOrderAt(b, 0.5)) }

// BenchmarkBrowsingMix is TPC-W's six browsing interactions at budget
// 0.5: read-only, result tables on both peers and on the wire.
func BenchmarkBrowsingMix(b *testing.B) { loop(b, browsingMix(b)) }

// BenchmarkTransferEncodeDecode is one control-transfer round trip
// without SQL: stack and heap sync encoded and decoded on each peer.
func BenchmarkTransferEncodeDecode(b *testing.B) { loop(b, transferRoundTrip(b)) }

// BenchmarkTransferLoop is sixteen control-transfer round trips of one
// call: the delta codec on a stack both peers keep.
func BenchmarkTransferLoop(b *testing.B) { loop(b, transferLoop(b)) }

// BenchmarkTableSweep is the sweep that ends a transfer.
func BenchmarkTableSweep(b *testing.B) { loop(b, tableSweep(b)) }

// TestAllocCeilings holds the transaction path to its measured
// allocation counts. A NewOrder allocates what it stores — 13 row
// versions, and its share of the B+tree nodes their keys fill (a key
// lives inside its node) — at every budget: each transaction,
// autocommit ones too, is its session's last Txn reused, every result
// table is recycled memory the engine or the dbapi decoder fills (the
// decoder copies a table's strings in one allocation), and every round
// trip's reply lands in the memory its caller lent from the last one
// (rpc.CallInto), so InProc copies each reply without allocating. The
// transfer ones are zero: stacks stay with the session between
// transfers.
func TestAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"NewOrder at budget 1", 14, newOrderSP(t)},
		{"NewOrder at budget 0", 14, newOrderAt(t, 0)},
		{"NewOrder at budget 0.5", 14, newOrderAt(t, 0.5)},
		// One allocation per page line, which builds its string with one
		// concat, and one per synced table with string cells. The first
		// 200 mixes measured here make longer pages than a benchmark run's
		// average. Measured 102, held at one more.
		{"browsing mix", 103, browsingMix(t)},
		{"transfer round trip", 0, transferRoundTrip(t)},
		{"transfer loop", 0, transferLoop(t)},
		{"table sweep", 0, tableSweep(t)},
	} {
		tc.run()
		if got := testing.AllocsPerRun(200, tc.run); got > tc.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.1f allocs (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
	}
}

// TestNewOrderCounts pins what the comments above count of a five-line
// NewOrder: 21 statements, 8 of them queries. At budget 1 every one
// runs on the DB peer, and each query fills one result table.
func TestNewOrderCounts(t *testing.T) {
	run, db := newOrderOn(t, 1)
	run()
	before := db.Stats()
	run()
	after := db.Stats()
	queries := after.Selects - before.Selects
	stmts := queries + after.Inserts - before.Inserts + after.Updates - before.Updates + after.Deletes - before.Deletes
	if queries != 8 || stmts != 21 {
		t.Errorf("a NewOrder ran %d statements, %d of them queries; want 21 and 8", stmts, queries)
	}
}

// TestNewOrderRetainedBytes guards the recycling above against hoarding:
// a pool that kept what it should let go would trade allocations for a
// heap that grows. It runs budget-1 NewOrders and fails when the live
// heap, after a collection, grows by more than the measured bytes per
// NewOrder plus 10 %. What a NewOrder rightly keeps is its rows and
// their B+tree entries.
func TestNewOrderRetainedBytes(t *testing.T) {
	const n, measured = 2000, 3270
	run := newOrderSP(t)
	for i := 0; i < 200; i++ {
		run()
	}
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	if limit := measured * 1.1; per > limit {
		t.Errorf("live heap grew %.0f B per NewOrder, limit %.0f", per, limit)
	} else {
		t.Logf("live heap grew %.0f B per NewOrder (limit %.0f)", per, limit)
	}
}

// TestBrowsingMixRetainedBytes is TestNewOrderRetainedBytes for the
// read-only browsing mix, which stores nothing: the live heap must not
// grow with the mixes run. A synced table's strings share one copy
// (dbapi.ReadResultSet), so a cell kept past its table's refill would
// pin the whole table's strings here.
func TestBrowsingMixRetainedBytes(t *testing.T) {
	const n, limit = 2000, 64
	run := browsingMix(t)
	for i := 0; i < 200; i++ {
		run()
	}
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	if per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n; per > limit {
		t.Errorf("live heap grew %.0f B per browsing mix, limit %d", per, limit)
	} else {
		t.Logf("live heap grew %.0f B per browsing mix (limit %d)", per, limit)
	}
}
