package bench

import (
	"runtime"
	"testing"
)

// TestRunParallelMux is the acceptance test for the concurrent
// runtime: >= 8 concurrent sessions multiplexed over one loopback TCP
// connection per wire against one shared DB-side runtime, with the
// ledger invariant proving no update was lost under contention.
func TestRunParallelMux(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if part.DBStatements() == 0 {
		t.Fatal("budget 1.0 should place statements on the DB server")
	}
	cfg := WallCfg{Clients: 8, Txns: 10}
	res, dbs, err := WallLedger(part, cfg, LedgerMix{ShareEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantTxns := cfg.Clients * cfg.Txns
	if res.TotalTxns != wantTxns {
		t.Errorf("completed %d txns, want %d", res.TotalTxns, wantTxns)
	}
	if res.Transfers == 0 {
		t.Error("shared DB-side peer served no control transfers")
	}
	// Every deposit added exactly 1.0 somewhere; lost updates on the
	// contended shared account would show up as a lower total.
	for _, v := range CheckLedger(dbs, wantTxns) {
		t.Errorf("under concurrency: %s", v)
	}
	if len(res.PerSession) != cfg.Clients {
		t.Errorf("per-session stats for %d sessions, want %d", len(res.PerSession), cfg.Clients)
	}
	for i, s := range res.PerSession {
		if s.N != cfg.Txns {
			t.Errorf("session %d recorded %d latencies, want %d", i, s.N, cfg.Txns)
		}
	}
}

// TestRunParallelTCP runs the same shape under heavier contention:
// every second deposit hits the shared account.
func TestRunParallelTCP(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, dbs, err := WallLedger(part, WallCfg{Clients: 8, Txns: 5}, LedgerMix{ShareEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTxns != 40 {
		t.Errorf("completed %d txns, want 40", res.TotalTxns)
	}
	for _, v := range CheckLedger(dbs, 40) {
		t.Error(v)
	}
}

// TestParallelLedgerScaling is the acceptance benchmark for the
// sharded engine: ledger throughput at 8 clients vs. 1 client, using
// the stored-procedure partition so every statement hits the shared
// database. Under the old single engine mutex the curve was flat; the
// sharded engine must reach >= 2x at 8 clients.
//
// Wall-clock parallel speedup needs parallel hardware: with fewer than
// 4 schedulable CPUs the 1-client baseline already saturates the
// machine (the deposit path is CPU-bound end to end), so no storage
// engine could pass the ratio. On such hosts the sweep still runs and
// every correctness invariant is enforced, plus a no-collapse bound on
// throughput; the 2x assertion applies on >= 4 CPUs.
func TestParallelLedgerScaling(t *testing.T) {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	const txnsPerClient = 50
	sizes := []int{1, 8}

	assertRatio := runtime.GOMAXPROCS(0) >= 4
	// The 2x acceptance target applies to uninstrumented builds; the
	// race detector's synchronization bookkeeping flattens parallel
	// speedup, so race builds assert a softer (still rising) curve.
	wantRatio := 2.0
	if raceEnabled {
		wantRatio = 1.4
	}
	// Wall-clock measurement: allow scheduler-noise retries. The
	// serialized-host path gets them too — its 0.5x collapse guard is
	// just as exposed to a noisy neighbor or GC pause as the scaling
	// assertion, especially on a 1-CPU box under the race detector.
	const attempts = 3

	var ratio float64
	for attempt := 0; attempt < attempts; attempt++ {
		var results []*WallResult
		for _, n := range sizes {
			res, dbs, err := WallLedger(part, WallCfg{Clients: n, Txns: txnsPerClient}, LedgerMix{ShareEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			wantTxns := n * txnsPerClient
			if res.TotalTxns != wantTxns {
				t.Fatalf("clients=%d: completed %d txns, want %d", n, res.TotalTxns, wantTxns)
			}
			if v := CheckLedger(dbs, wantTxns); len(v) > 0 {
				t.Fatalf("clients=%d: %v", n, v)
			}
			results = append(results, res)
		}
		one, eight := results[0], results[len(results)-1]
		ratio = eight.Tput / one.Tput
		t.Logf("attempt %d (GOMAXPROCS=%d):\n%s", attempt+1, runtime.GOMAXPROCS(0), SweepReport(results, "clients"))
		if assertRatio && ratio >= wantRatio {
			break
		}
		if !assertRatio && ratio >= 0.5 {
			break
		}
	}
	if !assertRatio {
		if ratio < 0.5 {
			t.Errorf("8-client throughput collapsed to %.2fx of 1-client on a %d-CPU host",
				ratio, runtime.GOMAXPROCS(0))
		}
		t.Skipf("GOMAXPROCS=%d < 4: ran sweep + invariants (ratio %.2fx); the 2x scaling assertion needs parallel hardware",
			runtime.GOMAXPROCS(0), ratio)
	}
	if ratio < wantRatio {
		t.Errorf("8-client throughput only %.2fx of 1-client, want >= %.1fx (race=%v; engine still serializing?)",
			ratio, wantRatio, raceEnabled)
	}
}

// TestRunParallelAppSide exercises the low-budget partition (queries
// issued from the APP side over the database wire) under concurrency.
func TestRunParallelAppSide(t *testing.T) {
	part, err := ParallelPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	res, dbs, err := WallLedger(part, WallCfg{Clients: 8, Txns: 5}, LedgerMix{ShareEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTxns != 40 {
		t.Errorf("completed %d txns, want 40", res.TotalTxns)
	}
	for _, v := range CheckLedger(dbs, 40) {
		t.Error(v)
	}
}
