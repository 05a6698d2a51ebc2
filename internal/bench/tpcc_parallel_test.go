package bench

import (
	"runtime"
	"sync"
	"testing"

	"pyxis/internal/dbapi"
)

// TestParallelTPCCInvariants is the wall-clock TPC-C counterpart of
// the ledger lost-update check: >= 8 concurrent sessions run the
// NewOrder/Payment mix through the partitioned runtime against one
// shared sharded database, then the TPC-C consistency conditions are
// audited — warehouse YTD totals must equal the sum of their district
// YTDs, and district order counters must equal the order rows.
// Payments hammer the per-warehouse hot row (4 warehouses, 8 clients)
// and NewOrders lock stock rows in per-transaction random order, so
// this run exercises lock waits and usually real deadlock resolution.
func TestParallelTPCCInvariants(t *testing.T) {
	cfg := DefaultTPCC()
	part, err := cfg.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if part.DBStatements() == 0 {
		t.Fatal("budget 1.0 should place statements on the DB server")
	}
	pcfg := WallCfg{Clients: 8, Txns: 12}
	res, dbs, err := WallTPCC(part, cfg, pcfg, TPCCMix{PaymentEvery: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if want := pcfg.Clients * pcfg.Txns; res.TotalTxns != want {
		t.Errorf("completed %d txns, want %d", res.TotalTxns, want)
	}
	if res.Payments == 0 || res.NewOrders == 0 {
		t.Errorf("degenerate mix: %d new-orders, %d payments", res.NewOrders, res.Payments)
	}
	if res.Transfers == 0 {
		t.Error("shared DB-side peer served no control transfers")
	}
	for _, v := range CheckTPCCInvariants(dbs[0], cfg) {
		t.Errorf("invariant violated: %s", v)
	}
}

// TestParallelTPCCAppSide runs the same audit with the budget-0
// partition: every statement issued from the APP side over the
// multiplexed database wire, transactions holding row locks across
// wire round trips.
func TestParallelTPCCAppSide(t *testing.T) {
	cfg := DefaultTPCC()
	part, err := cfg.PyxisPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := WallCfg{Clients: 8, Txns: 6}
	res, dbs, err := WallTPCC(part, cfg, pcfg, TPCCMix{PaymentEvery: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", res)
	if want := pcfg.Clients * pcfg.Txns; res.TotalTxns != want {
		t.Errorf("completed %d txns, want %d", res.TotalTxns, want)
	}
	for _, v := range CheckTPCCInvariants(dbs[0], cfg) {
		t.Errorf("invariant violated: %s", v)
	}
}

// TestPaymentNativeConcurrent drives the hand-written Payment
// transaction (the PyxJ program's native twin, sharing its SQL) from
// concurrent embedded connections: the warehouse hot rows serialize
// under 2PL, every booked amount must land in both YTD totals, and the
// final totals must equal the sum of the amounts applied. This also
// keeps paymentNative from drifting from the schema.
func TestPaymentNativeConcurrent(t *testing.T) {
	cfg := DefaultTPCC()
	db := cfg.Load()
	const workers, payments = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := dbapi.NewLocal(db)
			for k := 0; k < payments; k++ {
				seq := int64(w)*1_000_003 + int64(k)
				wid, did, cid, _, _, _ := cfg.txnParams(seq)
				if _, err := cfg.paymentNative(conn, wid, did, cid, 1.0); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range CheckTPCCInvariants(db, cfg) {
		t.Errorf("invariant violated: %s", v)
	}
	s := db.NewSession()
	rs, err := s.Query("SELECT SUM(w_ytd) FROM warehouse")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].AsFloat(); got != workers*payments {
		t.Errorf("total w_ytd = %v, want %d (lost Payment under concurrency)", got, workers*payments)
	}
	crs, err := s.Query("SELECT SUM(c_balance) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if got := crs.Rows[0][0].AsFloat(); got != -float64(workers*payments) {
		t.Errorf("total c_balance = %v, want %d", got, -(workers * payments))
	}
}

// TestParallelTPCCScaling measures wall-clock TPC-C throughput at 1
// vs. 4 clients. Like the ledger scaling test, the speedup assertion
// needs parallel hardware; on smaller hosts it still runs the sweep,
// audits the invariants at every point, and bounds the collapse.
func TestParallelTPCCScaling(t *testing.T) {
	cfg := DefaultTPCC()
	part, err := cfg.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	const txnsPerClient = 15
	// Both arms of the sweep are single samples, so both assertions —
	// the >1.0x speedup on parallel hosts and the 0.4x collapse floor
	// on serial ones — get retries before they bind; one preempted
	// 15-txn run on a loaded 1-CPU host can halve a measured tput.
	assertRatio := runtime.GOMAXPROCS(0) >= 4
	const attempts = 3
	var ratio float64
	for attempt := 0; attempt < attempts; attempt++ {
		var tputs []float64
		for _, n := range []int{1, 4} {
			res, dbs, err := WallTPCC(part, cfg, WallCfg{Clients: n, Txns: txnsPerClient}, TPCCMix{PaymentEvery: 3}, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", res)
			for _, v := range CheckTPCCInvariants(dbs[0], cfg) {
				t.Errorf("clients=%d: invariant violated: %s", n, v)
			}
			tputs = append(tputs, res.Tput)
		}
		ratio = tputs[1] / tputs[0]
		if assertRatio && ratio > 1.0 {
			break
		}
		if !assertRatio && ratio >= 0.4 {
			break
		}
	}
	if !assertRatio {
		if ratio < 0.4 {
			t.Errorf("4-client TPC-C throughput collapsed to %.2fx of 1-client on a %d-CPU host",
				ratio, runtime.GOMAXPROCS(0))
		}
		t.Skipf("GOMAXPROCS=%d < 4: ran sweep + invariants (ratio %.2fx); the scaling assertion needs parallel hardware",
			runtime.GOMAXPROCS(0), ratio)
	}
	if ratio <= 1.0 {
		t.Errorf("4-client TPC-C throughput %.2fx of 1-client, want improvement (> 1.0x)", ratio)
	}
}
