package bench

import (
	"errors"
	"fmt"
	"io"
	goruntime "runtime"

	"pyxis"
)

// This file is the table of wall-clock experiments cmd/pyxis-bench
// runs: what each one deploys and drives, and the gates its results
// must pass. A gate is a function of results alone, so the logic that
// can fail a run is tested on synthetic results (gates_test.go).

// Args are pyxis-bench's -clients, -txns, -pool and -shards.
type Args struct {
	Clients int // max concurrent sessions
	Txns    int // transactions per client
	Pool    int // mux connections per wire for the pool experiment
	Shards  int // shard servers for the sharded experiments
}

// Experiment is one row: Run prints its headings and tables to w and
// returns one labelled WallResult per arm or sweep point, Violations
// filled in by the run's own audit. Scales, when set, picks the flag
// the experiment multiplies against its 1-point arm, which it therefore
// needs at least 2 of.
type Experiment struct {
	Name   string
	Run    func(w io.Writer, a Args) ([]*WallResult, error)
	Gates  []Gate
	Scales func(a Args) (flag string, n int)
}

func scalesPool(a Args) (string, int)   { return "-pool", a.Pool }
func scalesShards(a Args) (string, int) { return "-shards", a.Shards }

// Validate reports the flag values e cannot run with. A flag e does not
// read is not its business.
func (e Experiment) Validate(a Args) error {
	if a.Clients < 1 || a.Txns < 1 {
		return errors.New("-clients and -txns must be >= 1")
	}
	if e.Scales != nil {
		if flag, n := e.Scales(a); n < 2 {
			return fmt.Errorf("%s must be >= 2 (got %d)", flag, n)
		}
	}
	return nil
}

// Gate is one acceptance condition over an experiment's results. Check
// returns a line per failure. A Speedup gate compares wall-clock
// throughput and binds only where speedupEnforced says the host can
// show parallel speedup; elsewhere Judge reports it as skipped.
type Gate struct {
	Name    string
	Speedup bool
	Check   func(rs []*WallResult) []string
}

// Experiments is every wall-clock experiment, in pyxis-bench's default
// order. It is a function, and no package-level variable here is built
// by a call, so that this package has no initialiser: benchmark/ imports
// it for the TPC-C and TPC-W sources only, and an initialiser that names
// the table would link the whole wall driver into the binary it times.
func Experiments() []Experiment {
	return []Experiment{
		{"parallel", runParallel, gates(), nil},
		{"tpcc-wall", runTPCCWall, gates(), nil},
		{"dynamic-wall", runDynamicWall, gates(gateSpikeRoutesLow), nil},
		{"pool-wall", runPoolWall, gates(
			speedupGate("pool-wall speedup >= 1.3x", 1.3, "1 conn", "pool", tput),
			gateSheds, gateP95Bound), scalesPool},
		{"shard-wall", runShardWall, gates(
			gateRemotePaymentRate(), gateRemoteNewOrderRate(), gateDistCommit, gateShardCoverage,
			speedupGate("shard-wall speedup >= 1.3x", 1.3, "1 shard", "sharded", tput)), scalesShards},
		{"rebalance-wall", runRebalanceWall, gates(
			gateMigrated, gateImbalance,
			speedupGate("rebalance-wall post-migration speedup >= 1.2x", 1.2, "frozen", "live", postTput)), scalesShards},
	}
}

// speedupEnforced reports whether a wall-clock speedup gate binds: a
// serialized host physically cannot show parallel speedup, too few
// sessions cannot load it, and the race detector's happens-before
// bookkeeping flattens it.
func speedupEnforced(cpus, clients int, race bool) bool {
	return cpus >= 4 && clients >= 8 && !race
}

// Judge runs e's gates over rs on this host and returns the failures
// and the gates that did not bind here (the report's gates_skipped).
func (e Experiment) Judge(rs []*WallResult, a Args) (failed, skipped []string) {
	return e.judge(rs, a, goruntime.GOMAXPROCS(0), raceEnabled)
}

func (e Experiment) judge(rs []*WallResult, a Args, cpus int, race bool) (failed, skipped []string) {
	for _, g := range e.Gates {
		if g.Speedup && !speedupEnforced(cpus, a.Clients, race) {
			skipped = append(skipped, fmt.Sprintf(
				"%s: needs >= 4 CPUs, >= 8 sessions, no race detector; have %d CPUs, %d sessions, race=%v",
				g.Name, cpus, a.Clients, race))
			continue
		}
		for _, f := range g.Check(rs) {
			failed = append(failed, g.Name+": "+f)
		}
	}
	return failed, skipped
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

// arm returns the result labelled name. An arm the run did not produce
// reads as a run in which nothing happened, which no gate passes by
// accident: each asserts that something did.
func arm(rs []*WallResult, name string) *WallResult {
	for _, r := range rs {
		if r.Arm == name {
			return r
		}
	}
	return &WallResult{Arm: name, Admission: &AdmissionResult{}, Migration: &MigrationResult{}}
}

// each applies check to every result and labels what it finds.
func each(rs []*WallResult, check func(r *WallResult) []string) (out []string) {
	for _, r := range rs {
		for _, f := range check(r) {
			out = append(out, fmt.Sprintf("%s (clients=%d conns=%d shards=%d): %s", r.Arm, r.Clients, r.Conns, r.Shards, f))
		}
	}
	return out
}

// gates is an experiment's gate list: the two that ride every
// experiment — all offered work completed (shed or fenced work is
// retried, never dropped), and the post-run audit (ledger lost updates,
// TPC-C and cross-shard invariants under the final map) found nothing —
// then its own.
func gates(own ...Gate) []Gate {
	return append([]Gate{
		{Name: "all work completed", Check: func(rs []*WallResult) []string {
			return each(rs, func(r *WallResult) []string {
				if r.TotalTxns != r.Offered {
					return []string{fmt.Sprintf("%d of %d transactions completed — work was DROPPED", r.TotalTxns, r.Offered)}
				}
				return nil
			})
		}},
		{Name: "invariants", Check: func(rs []*WallResult) []string {
			return each(rs, func(r *WallResult) []string { return r.Violations })
		}},
	}, own...)
}

func tput(r *WallResult) float64 { return r.Tput }

func postTput(r *WallResult) float64 { return r.Migration.PostTput }

// speedupGate requires metric on the scaled arm to be at least min
// times metric on the base arm.
func speedupGate(name string, min float64, base, scaled string, metric func(*WallResult) float64) Gate {
	return Gate{Name: name, Speedup: true, Check: func(rs []*WallResult) []string {
		b, s := arm(rs, base), arm(rs, scaled)
		if ratio := metric(s) / metric(b); !(ratio >= min) {
			return []string{fmt.Sprintf("%s at %.2fx of %s (%.0f vs %.0f txn/s at %d sessions)",
				scaled, ratio, base, metric(s), metric(b), s.Clients)}
		}
		return nil
	}}
}

// gateSpikeRoutesLow is dynamic-wall's smoke contract: the ramp must
// actually route. A switcher that never picks low under the spike (lost
// load reports, say) is a silent regression even when every transaction
// commits.
var gateSpikeRoutesLow = Gate{Name: "spike routes low-budget", Check: func(rs []*WallResult) []string {
	return each(rs, func(r *WallResult) []string {
		if len(r.Phases) < 2 {
			return []string{"no spike phase in the result"}
		}
		if spike := r.Phases[1]; spike.LowPicks == 0 {
			return []string{fmt.Sprintf("spike phase never routed low-budget (EWMA %.1f, %d reports)", spike.EWMA, r.Reports)}
		}
		return nil
	})
}}

// gateSheds: an oversubscribed admission-gated server must refuse
// sessions, and the clients must have seen it.
var gateSheds = Gate{Name: "oversubscribed server sheds", Check: func(rs []*WallResult) []string {
	sat := arm(rs, "saturation")
	if sat.Sheds == 0 || sat.Admission.ShedSessions == 0 {
		return []string{fmt.Sprintf("server never shed despite %d clients over %d slots (client sheds %d, server %d)",
			sat.Clients, sat.Admission.MaxSessions, sat.Sheds, sat.Admission.ShedSessions)}
	}
	return nil
}}

// gateP95Bound: with the population capped, per-transaction latency
// must stay orders of magnitude under the run length — an unbounded
// queue drives p95 toward the full elapsed time.
var gateP95Bound = Gate{Name: "saturation p95 <= 2000ms", Check: func(rs []*WallResult) []string {
	if sat := arm(rs, "saturation"); sat.P95Ms > 2000 {
		return []string{fmt.Sprintf("p95 %.1fms exceeds the saturation bound", sat.P95Ms)}
	}
	return nil
}}

// rateGate requires part/whole >= floor on the sharded arm once whole
// has enough samples for the rate to mean something.
func rateGate(name string, floor float64, part, whole func(*WallResult) int) Gate {
	return Gate{Name: name, Check: func(rs []*WallResult) []string {
		r := arm(rs, "sharded")
		if whole(r) < 30 {
			return nil
		}
		if rate := float64(part(r)) / float64(whole(r)); rate < floor {
			return []string{fmt.Sprintf("rate %.1f%% (%d of %d) below the %.0f%% floor", rate*100, part(r), whole(r), floor*100)}
		}
		return nil
	}}
}

// The spec remote rates must survive the drive: >= 1% remote Payments
// (spec rolls 15%) and >= 5% remote NewOrders (spec ~10%), plus at
// least one genuinely cross-shard 2PC commit on the sharded point.
func gateRemotePaymentRate() Gate {
	return rateGate("remote Payment rate >= 1%", 0.01,
		func(r *WallResult) int { return r.RemotePayments }, func(r *WallResult) int { return r.Payments })
}

func gateRemoteNewOrderRate() Gate {
	return rateGate("remote NewOrder rate >= 5%", 0.05,
		func(r *WallResult) int { return r.RemoteNewOrders }, func(r *WallResult) int { return r.NewOrders })
}

var gateDistCommit = Gate{Name: "cross-shard 2PC commits", Check: func(rs []*WallResult) []string {
	r := arm(rs, "sharded")
	if remote := r.RemotePayments + r.RemoteNewOrders; r.Shards >= 2 && remote >= 10 && r.DistCommits == 0 {
		return []string{fmt.Sprintf("%d remote transactions but no cross-shard 2PC commit", remote)}
	}
	return nil
}}

// gateShardCoverage: clients spread over WAREHOUSES (not shards), so
// full shard coverage is only guaranteed once every warehouse has a
// client.
var gateShardCoverage = Gate{Name: "every shard serves sessions", Check: func(rs []*WallResult) []string {
	return each(rs, func(r *WallResult) []string {
		if r.Clients < r.Warehouses {
			return nil
		}
		for s, n := range r.SessionsPerShard {
			if n == 0 {
				return []string{fmt.Sprintf("shard %d served no sessions: %v", s, r.SessionsPerShard)}
			}
		}
		return nil
	})
}}

// The live arm must actually migrate, and the move must flatten the
// skew: post-migration imbalance (hottest/median shard) at or under
// 1.5.
var (
	gateMigrated = Gate{Name: "advisor migrates under skew", Check: func(rs []*WallResult) []string {
		if arm(rs, "live").Migration.Migrations < 1 {
			return []string{"the advisor never migrated under the skew"}
		}
		return nil
	}}
	gateImbalance = Gate{Name: "post-migration imbalance <= 1.5", Check: func(rs []*WallResult) []string {
		if m := arm(rs, "live").Migration; m.ImbalanceAfter > 1.5 {
			return []string{fmt.Sprintf("imbalance %.2f after the move (was %.2f)", m.ImbalanceAfter, m.ImbalanceBefore)}
		}
		return nil
	}}
)

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

// doublingSizes returns the 1,2,4,... sweep ending exactly at max.
func doublingSizes(max int) []int {
	var sizes []int
	for n := 1; n < max; n *= 2 {
		sizes = append(sizes, n)
	}
	return append(sizes, max)
}

// tpccBudget1 is the stored-procedure-like TPC-C partition most
// experiments deploy, announced on w.
func tpccBudget1(w io.Writer, c TPCCConfig) (*pyxis.Partition, error) {
	part, err := c.PyxisPartition(1.0)
	if err == nil {
		fmt.Fprintf(w, "budget 1.0: {%s} warehouses=%d\n", part.Describe(), c.Warehouses)
	}
	return part, err
}

// runParallel measures real (wall-clock) multi-session scaling: N
// goroutine clients multiplexed over one connection per wire against
// one shared DB-side runtime, for both the stored-procedure-like
// (budget 1.0) and client-side-query (budget 0) partitions. The speedup
// column is relative to the 1-client point — flat under a global engine
// mutex, rising with the sharded engine on parallel hardware.
func runParallel(w io.Writer, a Args) ([]*WallResult, error) {
	fmt.Fprintln(w, "== Ledger: throughput vs clients over one multiplexed connection ==")
	var all []*WallResult
	for _, budget := range []float64{1.0, 0} {
		part, err := ParallelPartition(budget)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "budget %.1f: {%s}\n", budget, part.Describe())
		var sweep []*WallResult
		for _, n := range doublingSizes(a.Clients) {
			res, _, err := WallLedger(part, WallCfg{Clients: n, Txns: a.Txns}, LedgerMix{ShareEvery: 8})
			if err != nil {
				return nil, err
			}
			res.Arm = fmt.Sprintf("budget %.1f", budget)
			sweep = append(sweep, res)
		}
		fmt.Fprintln(w, SweepReport(sweep, "clients"))
		all = append(all, sweep...)
	}
	return all, nil
}

// runTPCCWall runs the wall-clock TPC-C NewOrder/Payment mix (the live
// counterpart of Figs. 9-11) against one shared engine.
func runTPCCWall(w io.Writer, a Args) ([]*WallResult, error) {
	fmt.Fprintln(w, "== TPC-C wall clock: NewOrder/Payment mix, shared sharded engine ==")
	c := DefaultTPCC()
	part, err := tpccBudget1(w, c)
	if err != nil {
		return nil, err
	}
	var sweep []*WallResult
	for _, n := range doublingSizes(a.Clients) {
		res, _, err := WallTPCC(part, c, WallCfg{Clients: n, Txns: a.Txns}, TPCCMix{PaymentEvery: 3}, 0)
		if err != nil {
			return nil, err
		}
		res.Arm = "budget 1.0"
		fmt.Fprintln(w, "  "+res.String())
		sweep = append(sweep, res)
	}
	return sweep, nil
}

// runDynamicWall runs live dynamic switching (the wall-clock Fig. 11):
// both TPC-C partitionings deployed at once behind one dual session
// manager, DB load reports piggy-backed on every mux reply, and every
// session routing independently off the shared EWMA while the forced
// load ramps idle -> spike -> recover. -txns is split evenly across the
// three phases.
func runDynamicWall(w io.Writer, a Args) ([]*WallResult, error) {
	fmt.Fprintln(w, "== TPC-C wall clock: dynamic switching under a forced load ramp ==")
	c := DefaultTPCC()
	high, err := c.PyxisPartition(1.0)
	if err != nil {
		return nil, err
	}
	low, err := c.PyxisPartition(0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "high budget: {%s}\nlow budget:  {%s}\n", high.Describe(), low.Describe())
	res, _, err := WallDynamic(high, low, c,
		WallCfg{Clients: a.Clients, Txns: max(a.Txns/len(DynamicRamp), 1)}, TPCCMix{PaymentEvery: 3})
	if err != nil {
		return nil, err
	}
	res.Arm = "ramp"
	fmt.Fprintln(w, res)
	return []*WallResult{res}, nil
}

// runPoolWall prices the single-connection head-of-line and proves
// graceful shedding:
//
//  1. the ledger workload at a fixed client count over 1 mux connection
//     vs a pool of -pool. Mostly-read calls keep the per-call engine
//     work small, so the wire — one read loop + one write mutex per end
//     — is what saturates first on the 1-conn point;
//  2. the TPC-C mix flooding an admission-gated server with more
//     clients than admitted-session slots: a quarter of the clients get
//     slots, the rest are refused with the typed shed and must still
//     finish.
func runPoolWall(w io.Writer, a Args) ([]*WallResult, error) {
	fmt.Fprintln(w, "== Ledger: one mux connection vs a striped pool (fixed clients) ==")
	part, err := ParallelPartition(1.0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "budget 1.0: {%s}\n", part.Describe())
	var rs []*WallResult
	for _, arm := range []struct {
		name  string
		conns int
	}{{"1 conn", 1}, {"pool", a.Pool}} {
		res, _, err := WallLedger(part, WallCfg{Clients: a.Clients, Txns: a.Txns, Conns: arm.conns}, LedgerMix{DepositEvery: 8})
		if err != nil {
			return nil, err
		}
		res.Arm = arm.name
		rs = append(rs, res)
	}
	fmt.Fprintln(w, SweepReport(rs, "conns"))

	fmt.Fprintln(w, "\n== TPC-C: forced saturation against the admission-gated server ==")
	c := DefaultTPCC()
	tpcc, err := tpccBudget1(w, c)
	if err != nil {
		return nil, err
	}
	// Saturation is oversubscription by construction: run at least 3x
	// more clients than slots even when -clients is tiny, so the shed
	// gate is always satisfiable.
	slots := max(a.Clients/4, 2)
	sat, _, err := WallTPCC(tpcc, c, WallCfg{Clients: max(a.Clients, 3*slots), Txns: max(a.Txns/4, 2),
		Conns: a.Pool}, TPCCMix{PaymentEvery: 3}, slots)
	if err != nil {
		return nil, err
	}
	sat.Arm = "saturation"
	fmt.Fprintln(w, "  "+sat.String())
	return append(rs, sat), nil
}

// runShardWall prices the single DB server itself: the wall-clock TPC-C
// mix over real loopback TCP against 1 shard server vs -shards
// independent shard servers, each owning a disjoint warehouse range
// with its own database, lock manager and runtime — the shared-nothing
// scale-out rung after pool-wall's single-server connection pool. The
// mix is the full TPC-C spec mix: remote-warehouse Payments (15%) and
// remote-supply NewOrders (~10%) ride every point, and on the sharded
// point the ones that cross a shard boundary run as two-branch 2PC
// transactions with their own latency/commit class in the report.
func runShardWall(w io.Writer, a Args) ([]*WallResult, error) {
	fmt.Fprintln(w, "== TPC-C wall clock: one DB server vs a sharded shared-nothing tier ==")
	c := DefaultTPCC()
	// Every shard must own at least two warehouses so intra-shard
	// variety survives the split; both sweep points use the same
	// (possibly grown) schema, so the comparison stays apples-to-apples.
	c.Warehouses = max(c.Warehouses, 2*a.Shards)
	part, err := tpccBudget1(w, c)
	if err != nil {
		return nil, err
	}
	// Mostly-read mix (as in pool-wall): cheap lastOrder calls keep the
	// single server wire-bound, which is the serial resource sharding
	// multiplies; the writes — remote mix included — keep the invariant
	// aggregator honest.
	mix := TPCCMix{WriteEvery: 8, PaymentEvery: 3, RemoteMix: true}
	one, _, err := WallTPCC(part, c, WallCfg{Clients: a.Clients, Txns: a.Txns}, mix, 0)
	if err != nil {
		return nil, err
	}
	one.Arm = "1 shard"
	sharded, _, err := WallTPCC(part, c, WallCfg{Clients: a.Clients, Txns: a.Txns, Shards: a.Shards}, mix, 0)
	if err != nil {
		return nil, err
	}
	sharded.Arm = "sharded"
	rs := []*WallResult{one, sharded}
	fmt.Fprintln(w, SweepReport(rs, "shards"))
	fmt.Fprintln(w, sharded)
	return rs, nil
}

// runRebalanceWall prices live rebalancing: the Zipf-skewed TPC-C mix
// (warehouse 1, shard 0, is the hotspot) against a frozen shard map vs
// the same mix with the advisor live — at the halfway point it folds
// the observed per-warehouse counts into a co-access min-cut, the
// migrator fences/streams/2PC-cuts the chosen warehouses to the cold
// shard, and the router re-homes sessions on the epoch bump while the
// drivers keep running. The wall-clock gate — post-migration throughput
// against the frozen arm's same window — needs parallel hardware: with
// one connection per shard the hot shard's wire is the serial resource,
// and only a multi-core host can bank the freed capacity.
func runRebalanceWall(w io.Writer, a Args) ([]*WallResult, error) {
	fmt.Fprintln(w, "== TPC-C wall clock: frozen shard map vs advisor-driven live rebalancing ==")
	c := DefaultTPCC()
	// Enough warehouses per shard that the donor has warm, movable
	// middle-rank warehouses under the Zipf skew (the rank-1 hotspot
	// alone usually exceeds the half-gap budget and must stay put).
	c.Warehouses = max(c.Warehouses, 4*a.Shards)
	fmt.Fprintf(w, "zipf skew s=%.1f over %d warehouses, %d shards, hotspot on shard 0\n", zipfS, c.Warehouses, a.Shards)
	cfg := WallCfg{Clients: a.Clients, Txns: a.Txns, Shards: a.Shards}
	var rs []*WallResult
	for _, arm := range []struct {
		name string
		mode Rebalancing
	}{{"frozen", Frozen}, {"live", Advised}} {
		res, _, err := WallRebalance(c, cfg, arm.mode)
		if err != nil {
			return nil, err
		}
		res.Arm = arm.name
		fmt.Fprintln(w, res)
		rs = append(rs, res)
	}
	return rs, nil
}
