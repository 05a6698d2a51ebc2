package bench

import (
	"testing"
	"time"

	"pyxis"
	"pyxis/internal/deploy"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// dynamicRamp is the forced external DB load (percent) of each phase:
// the idle → spike → recover ramp of Fig. 11, the wall-clock analogue
// of its background spike.
var dynamicRamp = []struct {
	name string
	load float64
}{{"idle", 5}, {"spike", 95}, {"recover", 5}}

// phaseStagger offsets session i's phase start by i*phaseStagger so the
// EWMA's flip lands at different transaction indices in different
// sessions.
const phaseStagger = 3 * time.Millisecond

// phaseSession lends a client to one phase of the ramp: the client
// stays open across phases and runRamp closes it.
type phaseSession struct{ *deploy.Client }

func (phaseSession) Close() error { return nil }

// phase is what one phase of the ramp did, and the switcher's EWMA when
// it ended.
type phase struct {
	driven
	name string
	sum  count
	ewma float64
}

func (p phase) lowShare() float64 { return float64(p.sum.low) / float64(p.sum.txns) }

// runRamp is the wall-clock counterpart of Fig. 11: the paper's §6.3
// dynamic switching running live. One DB server hosts both the high
// and the low partitioning; a LoadMonitor samples the server's
// saturation signal plus the forced ramp and piggy-backs it on every
// mux reply. The application side folds the reports into one shared
// Switcher EWMA while every session routes its next entry call
// independently through its own deploy.Client, so during a load
// transition concurrent sessions disagree about the best deployment.
// Each phase of dynamicRamp runs cfg.Txns transactions per client on
// sessions that stay open across phases. It returns the phases, the
// load reports the tier received and the database.
func runRamp(t *testing.T, high, low *pyxis.Partition, c TPCCConfig, cfg WallCfg, mix TPCCMix) ([]phase, int64, *sqldb.DB) {
	t.Helper()
	top, err := cfg.topology(c.Warehouses, high, low, c.loadRange)
	var mon *runtime.LoadMonitor
	top.Mux = func(_ int, db *sqldb.DB) rpc.MuxServeConfig {
		mon = colocatedMonitor(db)
		mon.SetExternal(dynamicRamp[0].load)
		return rpc.MuxServeConfig{Load: mon.Source()}
	}
	d := up(t, top, err)
	defer d.Close()
	sessions := make([]*deploy.Client, cfg.Clients)
	for i := range sessions {
		s, err := d.Open(0, "TPCC")
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		defer s.Close()
		sessions[i] = s
		// One unrecorded NewOrder per session at idle load, which the
		// high half serves, warms the plan cache and interpreter paths
		// so phase-boundary latencies reflect steady state.
		warm := c.parallelTxn(TPCCMix{}, i, 977_777, 1, int64(c.Warehouses))
		warm.args[len(warm.args)-1] = val.BoolV(false)
		if _, err := s.Call("TPCC.newOrder", warm.args...); err != nil {
			t.Fatalf("warm-up session %d: %v", i, err)
		}
	}
	var phases []phase
	for pi, ph := range dynamicRamp {
		mon.SetExternal(ph.load)
		out, err := drive(cfg.Clients, cfg.Txns,
			func(i int) (phaseSession, error) {
				time.Sleep(time.Duration(i) * phaseStagger)
				return phaseSession{sessions[i]}, nil
			},
			func(s phaseSession, i, k int) (txnOut, error) {
				tx := c.parallelTxn(mix, i, pi*cfg.Txns+k, 1, int64(c.Warehouses))
				before := s.Stats().Low
				_, err := s.Call("TPCC."+tx.method, tx.args...)
				return txnOut{kind: tx.kind, low: s.Stats().Low > before}, err
			})
		if err != nil {
			t.Fatalf("phase %s: %v", ph.name, err)
		}
		phases = append(phases, phase{driven: out, name: ph.name, sum: out.total(), ewma: d.Router.Load(0)})
	}
	return phases, d.Ctl.LoadReports() + d.DB.LoadReports(), d.DBs[0]
}

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
	phases, reports, db := runRamp(t, high, low, cfg, dcfg, TPCCMix{PaymentEvery: 3})
	var txns, newOrders, payments int
	for _, ph := range phases {
		t.Logf("%-8s txns=%d low=%d ewma=%.1f", ph.name, ph.sum.txns, ph.sum.low, ph.ewma)
		txns += ph.sum.txns
		newOrders += ph.sum.kinds[kindNewOrder]
		payments += ph.sum.kinds[kindPayment]
	}
	if want := dcfg.Clients * len(dynamicRamp) * dcfg.Txns; txns != want {
		t.Errorf("completed %d txns, want %d", txns, want)
	}
	if reports == 0 {
		t.Fatal("no load reports were piggy-backed on mux replies")
	}
	if newOrders == 0 || payments == 0 {
		t.Errorf("degenerate mix: %d new-orders, %d payments", newOrders, payments)
	}

	idle, spike, recover := phases[0], phases[1], phases[2]
	// The pick share must track the ramp: rise into the spike, fall out
	// of it.
	if idle.lowShare() >= 0.3 {
		t.Errorf("idle phase routed %.0f%% low-budget (EWMA %.1f); expected mostly high",
			idle.lowShare()*100, idle.ewma)
	}
	if spike.lowShare() <= 0.5 {
		t.Errorf("spike phase routed only %.0f%% low-budget (EWMA %.1f); expected mostly low",
			spike.lowShare()*100, spike.ewma)
	}
	if spike.lowShare() <= idle.lowShare() || recover.lowShare() >= spike.lowShare() {
		t.Errorf("low share did not rise then fall: idle=%.2f spike=%.2f recover=%.2f",
			idle.lowShare(), spike.lowShare(), recover.lowShare())
	}
	if recover.lowShare() >= 0.5 {
		t.Errorf("recover phase stuck on low-budget: %.0f%% (EWMA %.1f)",
			recover.lowShare()*100, recover.ewma)
	}

	// The spike phase is the mixed one: it starts on the idle EWMA, so
	// every session serves some calls high before the average crosses
	// the threshold, and because sessions observe the shared EWMA at
	// independent moments, their mixes differ.
	if spike.sum.low == 0 || spike.sum.low == spike.sum.txns {
		t.Errorf("spike phase not mixed: low=%d high=%d", spike.sum.low, spike.sum.txns-spike.sum.low)
	}
	perSession, distinct := []int{}, map[int]bool{}
	for _, c := range spike.clients {
		perSession = append(perSession, c.low)
		distinct[c.low] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d sessions routed identically in the mixed phase (per-session low picks %v)",
			dcfg.Clients, perSession)
	}

	// Both deployments committed against one database: the TPC-C
	// consistency conditions must survive the whole dynamic run.
	for _, v := range CheckTPCCInvariants(db, cfg) {
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
	phases, reports, db := runRamp(t, high, low, cfg, WallCfg{Clients: 4, Txns: 6}, TPCCMix{PaymentEvery: 3})
	if reports == 0 {
		t.Error("no load reports crossed the TCP wire")
	}
	if phases[1].sum.low == 0 {
		t.Error("spike phase never routed low-budget over TCP")
	}
	for _, v := range CheckTPCCInvariants(db, cfg) {
		t.Errorf("invariant violated: %s", v)
	}
}
