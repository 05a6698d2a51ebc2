package runtime_test

import (
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
func newOrderSP(tb testing.TB) func() {
	tb.Helper()
	cfg := bench.DefaultTPCC()
	part, err := cfg.PyxisPartition(1)
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
// NewOrder leaves its DB session to sweep, 13 dead tables, plus one
// that a shipped slot still names, and sweeps it. The refill is a map
// insert per table and is part of the number.
func tableSweep(tb testing.TB) func() {
	sn := runtime.NewPeer(runtime.LoopProgram(tb), pdg.DB, nil).NewSession(nil)
	return func() {
		sn.FillTables(13, 1)
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
// each way, 13 statements on the DB peer's embedded connection, 13
// result tables made and freed.
func BenchmarkNewOrderSP(b *testing.B) { loop(b, newOrderSP(b)) }

// BenchmarkTransferEncodeDecode is one control-transfer round trip
// without SQL: stack and heap sync encoded and decoded on each peer.
func BenchmarkTransferEncodeDecode(b *testing.B) { loop(b, transferRoundTrip(b)) }

// BenchmarkTransferLoop is sixteen control-transfer round trips of one
// call: the delta codec on a stack both peers keep.
func BenchmarkTransferLoop(b *testing.B) { loop(b, transferLoop(b)) }

// BenchmarkTableSweep is the sweep that ends a transfer.
func BenchmarkTableSweep(b *testing.B) { loop(b, tableSweep(b)) }

// TestAllocCeilings holds the transaction path to the allocation counts
// measured when the benchmarks above were written (the transfer ones
// since stacks stay with the session between transfers).
func TestAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"NewOrder at budget 1", 66, newOrderSP(t)},
		// One allocation per round trip: rpc.InProc's copy of the request.
		{"transfer round trip", 1, transferRoundTrip(t)},
		{"transfer loop", 16, transferLoop(t)},
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
