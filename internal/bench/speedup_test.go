package bench

import (
	goruntime "runtime"
	"testing"
)

// speedupEnforced reports whether a wall-clock speedup bound binds: a
// serialized host physically cannot show parallel speedup, and the race
// detector's happens-before bookkeeping flattens it. Every row's scaled
// arm runs 8 sessions, enough to load 4 CPUs.
func speedupEnforced(cpus int, race bool) bool {
	return cpus >= 4 && !race
}

// ledgerTput runs the ledger at cfg and returns its throughput once
// every call completed and the deposit audit found no lost update.
func ledgerTput(t *testing.T, cfg WallCfg, mix LedgerMix) float64 {
	part, err := ParallelPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := runLedger(t, part, cfg, mix)
	if r.sum.txns != cfg.Clients*cfg.Txns {
		t.Fatalf("%+v: completed %d txns, want %d", cfg, r.sum.txns, cfg.Clients*cfg.Txns)
	}
	if v := CheckLedger(r.db, r.sum.kinds[kindDeposit]); len(v) > 0 {
		t.Fatalf("%+v: %v", cfg, v)
	}
	return r.tput()
}

// tpccTput runs the TPC-C mix at cfg and returns its throughput once
// every transaction completed and the TPC-C audits held.
func tpccTput(t *testing.T, cfg WallCfg, mix TPCCMix) float64 {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := runTPCC(t, part, c, cfg, mix)
	if r.sum.txns != cfg.Clients*cfg.Txns {
		t.Fatalf("%+v: completed %d txns, want %d", cfg, r.sum.txns, cfg.Clients*cfg.Txns)
	}
	if len(r.violations) > 0 {
		t.Fatalf("%+v: invariants violated: %v", cfg, r.violations)
	}
	return r.tput()
}

// TestParallelSpeedup holds every wall-clock speedup bound, one row per
// ratio of a scaled arm's throughput to its base arm's. A row's bound
// binds only where speedupEnforced says this host can show parallel
// speedup; elsewhere its collapse floor applies (0: none). Every arm
// audits its own run each time, and a row re-measures up to its
// attempts before the ratio fails it.
func TestParallelSpeedup(t *testing.T) {
	for _, row := range []struct {
		name         string
		bound, floor float64
		attempts     int
		run          func(t *testing.T) (base, scaled float64)
	}{
		// The sharded engine must scale the ledger: flat under a global
		// engine mutex.
		{"ledger_8_clients_vs_1", 2.0, 0.5, 3, func(t *testing.T) (float64, float64) {
			return ledgerTput(t, WallCfg{Clients: 1, Txns: 50}, LedgerMix{ShareEvery: 8}),
				ledgerTput(t, WallCfg{Clients: 8, Txns: 50}, LedgerMix{ShareEvery: 8})
		}},
		// A pool lifts the single connection's head-of-line: mostly
		// reads keep the engine work small, so the wire saturates first.
		{"pool_4_conns_vs_1", 1.3, 0, 1, func(t *testing.T) (float64, float64) {
			return ledgerTput(t, WallCfg{Clients: 8, Txns: 40, Conns: 1}, LedgerMix{DepositEvery: 8}),
				ledgerTput(t, WallCfg{Clients: 8, Txns: 40, Conns: 4}, LedgerMix{DepositEvery: 8})
		}},
		{"tpcc_8_clients_vs_1", 1.0, 0.4, 3, func(t *testing.T) (float64, float64) {
			return tpccTput(t, WallCfg{Clients: 1, Txns: 15}, TPCCMix{PaymentEvery: 3}),
				tpccTput(t, WallCfg{Clients: 8, Txns: 15}, TPCCMix{PaymentEvery: 3})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cpus := goruntime.GOMAXPROCS(0)
			enforced := speedupEnforced(cpus, raceEnabled)
			want := row.floor
			if enforced {
				want = row.bound
			}
			var ratio float64
			for attempt := 1; attempt <= row.attempts; attempt++ {
				base, scaled := row.run(t)
				ratio = scaled / base
				t.Logf("attempt %d: %.0f vs %.0f txn/s = %.2fx", attempt, scaled, base, ratio)
				if ratio >= want {
					break
				}
			}
			if ratio < want {
				t.Errorf("%.2fx, want >= %.2fx (%d CPUs, race=%v)", ratio, want, cpus, raceEnabled)
			}
			if !enforced {
				t.Logf("the %.1fx bound is not enforced: needs >= 4 CPUs and no race detector; have %d CPUs, race=%v",
					row.bound, cpus, raceEnabled)
			}
		})
	}
}
