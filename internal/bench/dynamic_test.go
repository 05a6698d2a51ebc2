package bench

import "testing"

// TestParallelDynamicSwitchingRamp is the acceptance run for live
// session-aware switching: under a forced idle → spike → recover DB
// load ramp, the low-budget pick share must rise then fall, concurrent
// sessions must route differently within the mixed (spike) phase, and
// the TPC-C invariants must hold on the shared database both
// deployments wrote to.
func TestParallelDynamicSwitchingRamp(t *testing.T) {
	cfg := DefaultTPCC()
	high, err := cfg.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	low, err := cfg.PyxisPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if high.DBStatements() <= low.DBStatements() {
		t.Fatalf("budget pair inverted: high has %d DB statements, low %d",
			high.DBStatements(), low.DBStatements())
	}

	dcfg := WallCfg{Clients: 6, Txns: 14}
	res, dbs, err := WallDynamic(high, low, cfg, dcfg, TPCCMix{PaymentEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)

	if want := dcfg.Clients * len(DynamicRamp) * dcfg.Txns; res.TotalTxns != want {
		t.Errorf("completed %d txns, want %d", res.TotalTxns, want)
	}
	if res.Reports == 0 {
		t.Fatal("no load reports were piggy-backed on mux replies")
	}
	if res.NewOrders == 0 || res.Payments == 0 {
		t.Errorf("degenerate mix: %d new-orders, %d payments", res.NewOrders, res.Payments)
	}

	idle, spike, recover := res.Phases[0], res.Phases[1], res.Phases[2]
	// The pick share must track the ramp: rise into the spike, fall out
	// of it.
	if idle.LowShare >= 0.3 {
		t.Errorf("idle phase routed %.0f%% low-budget (EWMA %.1f); expected mostly high",
			idle.LowShare*100, idle.EWMA)
	}
	if spike.LowShare <= 0.5 {
		t.Errorf("spike phase routed only %.0f%% low-budget (EWMA %.1f); expected mostly low",
			spike.LowShare*100, spike.EWMA)
	}
	if spike.LowShare <= idle.LowShare || recover.LowShare >= spike.LowShare {
		t.Errorf("low share did not rise then fall: idle=%.2f spike=%.2f recover=%.2f",
			idle.LowShare, spike.LowShare, recover.LowShare)
	}
	if recover.LowShare >= 0.5 {
		t.Errorf("recover phase stuck on low-budget: %.0f%% (EWMA %.1f)",
			recover.LowShare*100, recover.EWMA)
	}

	// The spike phase is the mixed one: it starts on the idle EWMA, so
	// every session serves some calls high before the average crosses
	// the threshold — and because sessions observe the shared EWMA at
	// independent moments, their mixes differ.
	if spike.LowPicks == 0 || spike.HighPicks == 0 {
		t.Errorf("spike phase not mixed: low=%d high=%d", spike.LowPicks, spike.HighPicks)
	}
	if spike.DistinctMixes < 2 {
		t.Errorf("all %d sessions routed identically in the mixed phase (per-session low picks %v)",
			dcfg.Clients, spike.PerSessionLow)
	}

	// Both deployments committed against one database: the TPC-C
	// consistency conditions must survive the whole dynamic run.
	for _, v := range CheckTPCCInvariants(dbs[0], cfg) {
		t.Errorf("invariant violated: %s", v)
	}
}

// TestParallelDynamicTCP smokes the same loopback TCP stack with a
// shorter ramp: even a few calls per phase must carry load reports
// and route the spike low-budget.
func TestParallelDynamicTCP(t *testing.T) {
	cfg := DefaultTPCC()
	high, err := cfg.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	low, err := cfg.PyxisPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	res, dbs, err := WallDynamic(high, low, cfg, WallCfg{Clients: 4, Txns: 6}, TPCCMix{PaymentEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Reports == 0 {
		t.Error("no load reports crossed the TCP wire")
	}
	if res.Phases[1].LowPicks == 0 {
		t.Error("spike phase never routed low-budget over TCP")
	}
	for _, v := range CheckTPCCInvariants(dbs[0], cfg) {
		t.Errorf("invariant violated: %s", v)
	}
}
