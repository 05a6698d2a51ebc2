// Command pyxis-bench regenerates the paper's evaluation artifacts
// (Figs. 9–14 and the microbenchmarks) on the deterministic simulator.
//
// Usage:
//
//	pyxis-bench                 # quick scale, all experiments
//	pyxis-bench -full           # paper-scale sweeps (slower)
//	pyxis-bench -exp fig9,fig14 # subset
package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"pyxis/internal/bench"
)

// jsonOut mirrors the -json flag: when set, the wall-clock experiments
// additionally write machine-readable BENCH_<experiment>.json files so
// the bench trajectory can be tracked across PRs.
var jsonOut bool

// saveJSON writes one experiment's data when -json is set.
func saveJSON(experiment string, data any, gatesSkipped ...string) {
	if !jsonOut {
		return
	}
	path, err := bench.SaveReport("", experiment, data, gatesSkipped...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pyxis-bench: %s: %v\n", experiment, err)
		os.Exit(1)
	}
	fmt.Printf("(wrote %s)\n", path)
}

// gateSkips renders the standard skipped-gate entry for a wall-clock
// speedup gate that did not run because the host cannot show parallel
// speedup (see the enforce conditions at each call site).
func gateSkips(enforce bool, gate string, clients int) []string {
	if enforce {
		return nil
	}
	return []string{fmt.Sprintf(
		"%s: needs >= 4 CPUs, >= 8 sessions, no race detector; have %d CPUs, %d sessions, race=%v",
		gate, goruntime.GOMAXPROCS(0), clients, bench.RaceEnabled())}
}

func main() {
	var (
		full    = flag.Bool("full", false, "run paper-scale sweeps (slower)")
		exps    = flag.String("exp", "fig9,fig10,fig11,fig12,fig13,fig14,micro1,parallel,tpcc-wall,dynamic-wall,pool-wall,shard-wall,rebalance-wall", "comma-separated experiments")
		clients = flag.Int("clients", 16, "max concurrent sessions for the parallel experiments")
		txns    = flag.Int("txns", 200, "transactions per client for the parallel experiments")
		pool    = flag.Int("pool", 4, "mux connections per wire for the pool experiments")
		shards  = flag.Int("shards", 2, "shard servers for the shard-wall experiment")
		jsonFlg = flag.Bool("json", false, "also write machine-readable BENCH_<experiment>.json result files")
	)
	flag.Parse()
	jsonOut = *jsonFlg

	scale := bench.QuickScale()
	if *full {
		scale = bench.FullScale()
	}

	runners := map[string]func(bench.Scale) (*bench.Table, error){
		"fig9":  bench.Fig9,
		"fig10": bench.Fig10,
		"fig11": bench.Fig11,
		"fig12": bench.Fig12,
		"fig13": bench.Fig13,
		"fig14": bench.Fig14,
	}

	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(name)
		if name == "micro1" {
			runMicro1()
			continue
		}
		if name == "parallel" {
			runParallel(*clients, *txns)
			continue
		}
		if name == "tpcc-wall" {
			runTPCCWall(*clients, *txns)
			continue
		}
		if name == "dynamic-wall" {
			runDynamicWall(*clients, *txns)
			continue
		}
		if name == "pool-wall" {
			runPoolWall(*clients, *txns, *pool)
			continue
		}
		if name == "shard-wall" {
			runShardWall(*clients, *txns, *shards)
			continue
		}
		if name == "rebalance-wall" {
			runRebalanceWall(*clients, *txns, *shards)
			continue
		}
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pyxis-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		table, err := run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pyxis-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(table)
		fmt.Printf("(%s generated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// doublingSizes returns the 1,2,4,... sweep ending exactly at max.
func doublingSizes(max int) []int {
	var sizes []int
	for n := 1; n < max; n *= 2 {
		sizes = append(sizes, n)
	}
	return append(sizes, max)
}

// runParallel measures real (wall-clock) multi-session scaling: N
// goroutine clients multiplexed over one connection per wire against
// one shared DB-side runtime, for both the stored-procedure-like
// (budget 1.0) and client-side-query (budget 0) partitions. The
// speedup column is relative to the 1-client point — flat under a
// global engine mutex, rising with the sharded engine on parallel
// hardware.
func runParallel(maxClients, txns int) {
	if maxClients < 1 || txns < 1 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: -clients and -txns must be >= 1")
		os.Exit(2)
	}
	fmt.Println("== Ledger: throughput vs clients over one multiplexed connection ==")
	byBudget := map[string][]*bench.ParallelResult{}
	for _, budget := range []float64{1.0, 0} {
		part, err := bench.ParallelPartition(budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyxis-bench: parallel:", err)
			os.Exit(1)
		}
		fmt.Printf("budget %.1f: {%s}\n", budget, part.Describe())
		results, err := bench.RunScaling(part,
			bench.ParallelCfg{Txns: txns, ShareEvery: 8, TCP: true}, doublingSizes(maxClients))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyxis-bench: parallel:", err)
			os.Exit(1)
		}
		fmt.Println(bench.ScalingReport(results))
		byBudget[fmt.Sprintf("budget_%.1f", budget)] = results
	}
	saveJSON("parallel", byBudget)
	fmt.Println()
}

// runTPCCWall runs the wall-clock TPC-C NewOrder/Payment mix (the live
// counterpart of Figs. 9-11) and audits the consistency invariants
// after each point.
func runTPCCWall(maxClients, txns int) {
	if maxClients < 1 || txns < 1 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: -clients and -txns must be >= 1")
		os.Exit(2)
	}
	cfg := bench.DefaultTPCC()
	part, err := bench.TPCCParallelPartition(cfg, 1.0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: tpcc-wall:", err)
		os.Exit(1)
	}
	fmt.Println("== TPC-C wall clock: NewOrder/Payment mix, shared sharded engine ==")
	fmt.Printf("budget 1.0: {%s}\n", part.Describe())
	var results []*bench.TPCCParallelResult
	for _, n := range doublingSizes(maxClients) {
		res, db, err := bench.RunParallelTPCC(part, cfg, bench.TPCCParallelCfg{
			Clients: n, Txns: txns, PaymentEvery: 3, TCP: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyxis-bench: tpcc-wall:", err)
			os.Exit(1)
		}
		fmt.Println("  " + res.String())
		if violations := bench.CheckTPCCInvariants(db, cfg); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "pyxis-bench: tpcc-wall: INVARIANT VIOLATED:", v)
			}
			os.Exit(1)
		}
		results = append(results, res)
	}
	saveJSON("tpcc-wall", results)
	fmt.Println()
}

// runDynamicWall runs live dynamic switching (the wall-clock Fig. 11):
// both TPC-C partitionings deployed at once behind one dual session
// manager, DB load reports piggy-backed on every mux reply, and every
// session routing independently off the shared EWMA while the forced
// load ramps idle -> spike -> recover. -txns is split evenly across
// the three phases.
func runDynamicWall(clients, txns int) {
	if clients < 1 || txns < 1 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: -clients and -txns must be >= 1")
		os.Exit(2)
	}
	perPhase := txns / 3
	if perPhase < 1 {
		perPhase = 1
	}
	cfg := bench.DefaultTPCC()
	high, err := bench.TPCCParallelPartition(cfg, 1.0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: dynamic-wall:", err)
		os.Exit(1)
	}
	low, err := bench.TPCCParallelPartition(cfg, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: dynamic-wall:", err)
		os.Exit(1)
	}
	fmt.Println("== TPC-C wall clock: dynamic switching under a forced load ramp ==")
	fmt.Printf("high budget: {%s}\nlow budget:  {%s}\n", high.Describe(), low.Describe())
	res, db, err := bench.RunParallelDynamic(high, low, cfg, bench.DynamicCfg{
		Clients: clients, PaymentEvery: 3, TCP: true,
		Phases: bench.DefaultDynamicRamp(perPhase),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: dynamic-wall:", err)
		os.Exit(1)
	}
	fmt.Println(res)
	// The smoke contract: the ramp must actually route. A switcher that
	// never picks low under the spike (e.g. lost load reports) is a
	// silent regression even when every transaction commits.
	if spike := res.Phases[1]; spike.LowPicks == 0 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: dynamic-wall: spike phase never routed low-budget (EWMA %.1f, %d reports)\n",
			spike.EWMA, res.Reports)
		os.Exit(1)
	}
	if violations := bench.CheckTPCCInvariants(db, cfg); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "pyxis-bench: dynamic-wall: INVARIANT VIOLATED:", v)
		}
		os.Exit(1)
	}
	saveJSON("dynamic-wall", res)
	fmt.Println()
}

// runPoolWall prices the single-connection head-of-line and proves
// graceful shedding — the two halves of the pool + admission PR:
//
//  1. the ledger workload at a fixed client count over 1 mux
//     connection vs a pool of -pool, with the N-conn speedup enforced
//     (>= 1.3x) on parallel hardware (>= 4 CPUs, >= 8 sessions, no
//     race detector — serialized hosts physically cannot show it);
//  2. the TPC-C mix flooding an admission-gated server with more
//     clients than admitted-session slots: the server must shed with
//     ErrOverloaded, every transaction must still commit, p95 must
//     stay bounded (queues cannot grow past the admitted population),
//     and the TPC-C invariants must hold.
func runPoolWall(clients, txns, pool int) {
	if clients < 1 || txns < 1 || pool < 2 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: -clients/-txns must be >= 1 and -pool >= 2")
		os.Exit(2)
	}

	// Half 1: the head-of-line price. Mostly-read ledger calls keep the
	// per-call engine work small, so the wire — one read loop + one
	// write mutex per end — is what saturates first on the 1-conn
	// point.
	part, err := bench.ParallelPartition(1.0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: pool-wall:", err)
		os.Exit(1)
	}
	fmt.Println("== Ledger: one mux connection vs a striped pool (fixed clients) ==")
	fmt.Printf("budget 1.0: {%s}\n", part.Describe())
	scaling, err := bench.RunPoolScaling(part,
		bench.PoolCfg{Clients: clients, Txns: txns, DepositEvery: 8, TCP: true}, []int{1, pool})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: pool-wall:", err)
		os.Exit(1)
	}
	fmt.Println(bench.PoolScalingReport(scaling))
	for _, r := range scaling {
		if r.FinalTotal != r.ExpectTotal {
			fmt.Fprintf(os.Stderr, "pyxis-bench: pool-wall: LOST UPDATES at conns=%d: %v != %v\n",
				r.Conns, r.FinalTotal, r.ExpectTotal)
			os.Exit(1)
		}
	}
	speedup := 0.0
	if scaling[0].Tput > 0 {
		speedup = scaling[len(scaling)-1].Tput / scaling[0].Tput
	}
	enforce := goruntime.GOMAXPROCS(0) >= 4 && clients >= 8 && !bench.RaceEnabled()
	if enforce && speedup < 1.3 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: pool-wall: %d-conn pool only %.2fx of single-conn throughput (want >= 1.3x at %d sessions on %d CPUs)\n",
			pool, speedup, clients, goruntime.GOMAXPROCS(0))
		os.Exit(1)
	}
	if !enforce {
		fmt.Printf("(speedup %.2fx not enforced: needs >= 4 CPUs, >= 8 sessions, no race detector; have %d CPUs, %d sessions, race=%v)\n",
			speedup, goruntime.GOMAXPROCS(0), clients, bench.RaceEnabled())
	}

	// Half 2: graceful shed. A quarter of the clients get slots; the
	// rest are refused with the typed shed and must still finish.
	cfg := bench.DefaultTPCC()
	tpccPart, err := bench.TPCCParallelPartition(cfg, 1.0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: pool-wall:", err)
		os.Exit(1)
	}
	maxSessions := clients / 4
	if maxSessions < 2 {
		maxSessions = 2
	}
	// Saturation is oversubscription by construction: run at least 3x
	// more clients than slots even when -clients is tiny, so the shed
	// assertion below is always satisfiable.
	satClients := clients
	if satClients < 3*maxSessions {
		satClients = 3 * maxSessions
	}
	satTxns := txns / 4
	if satTxns < 2 {
		satTxns = 2
	}
	satCfg := bench.PoolSatCfg{Clients: satClients, Txns: satTxns, Conns: pool,
		MaxSessions: maxSessions, PaymentEvery: 3, TCP: true}
	fmt.Println("\n== TPC-C: forced saturation against the admission-gated server ==")
	sat, db, err := bench.RunPoolSaturation(tpccPart, cfg, satCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: pool-wall:", err)
		os.Exit(1)
	}
	fmt.Println("  " + sat.String())
	if sat.TotalTxns != satCfg.Clients*satCfg.Txns {
		fmt.Fprintf(os.Stderr, "pyxis-bench: pool-wall: %d of %d transactions completed — shed work was DROPPED\n",
			sat.TotalTxns, satCfg.Clients*satCfg.Txns)
		os.Exit(1)
	}
	if sat.ClientSheds == 0 || sat.Admission.ShedSessions == 0 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: pool-wall: server never shed despite %d clients over %d slots\n",
			satCfg.Clients, satCfg.MaxSessions)
		os.Exit(1)
	}
	// Bounded p95: with the population capped, per-transaction latency
	// must stay orders of magnitude under the run length — an
	// unbounded queue drives p95 toward the full elapsed time.
	if bound := 2000.0; sat.P95Ms > bound {
		fmt.Fprintf(os.Stderr, "pyxis-bench: pool-wall: p95 %.1fms exceeds the %.0fms saturation bound\n",
			sat.P95Ms, bound)
		os.Exit(1)
	}
	if violations := bench.CheckTPCCInvariants(db, cfg); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "pyxis-bench: pool-wall: INVARIANT VIOLATED:", v)
		}
		os.Exit(1)
	}
	saveJSON("pool-wall", map[string]any{"scaling": scaling, "saturation": sat},
		gateSkips(enforce, "pool-wall speedup >= 1.3x", clients)...)
	fmt.Println()
}

// runShardWall prices the single DB server itself: the wall-clock
// TPC-C mix over real loopback TCP against 1 shard server vs -shards
// independent shard servers, each owning a disjoint warehouse range
// with its own database, lock manager and runtime — the shared-nothing
// scale-out rung after pool-wall's single-server connection pool. The
// mix is the full TPC-C spec mix: remote-warehouse Payments (15%) and
// remote-supply NewOrders (~10%) ride every point, and on the sharded
// point the ones that cross a shard boundary run as two-branch 2PC
// transactions with their own latency/commit class in the report. The
// N-shard speedup is enforced (>= 1.3x) on parallel hardware (>= 4
// CPUs, >= 8 sessions, no race detector), the cross-shard invariant
// aggregator — including the global c_balance-vs-w_ytd and
// s_ytd-vs-ol_quantity sums that bind the remote branches — must hold
// after every point (RunShardScaling exits non-zero otherwise), and
// the report is always written to BENCH_shard-wall.json so the
// scale-out trajectory is machine-comparable across PRs.
func runShardWall(clients, txns, shards int) {
	if clients < 1 || txns < 1 || shards < 2 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: -clients/-txns must be >= 1 and -shards >= 2")
		os.Exit(2)
	}
	cfg := bench.DefaultTPCC()
	// Every shard must own at least two warehouses so intra-shard
	// variety survives the split; both sweep points use the same
	// (possibly grown) schema, so the comparison stays apples-to-apples.
	if cfg.Warehouses < 2*shards {
		cfg.Warehouses = 2 * shards
	}
	part, err := bench.TPCCParallelPartition(cfg, 1.0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: shard-wall:", err)
		os.Exit(1)
	}
	fmt.Println("== TPC-C wall clock: one DB server vs a sharded shared-nothing tier ==")
	fmt.Printf("budget 1.0: {%s} warehouses=%d\n", part.Describe(), cfg.Warehouses)
	// Mostly-read mix (as in pool-wall): cheap lastOrder calls keep the
	// single server wire-bound, which is the serial resource sharding
	// multiplies; the writes — remote mix included — keep the invariant
	// aggregator honest.
	base := bench.ShardCfg{Clients: clients, Txns: txns, Conns: 1,
		WriteEvery: 8, PaymentEvery: 3, RemoteMix: true, TCP: true}
	results, err := bench.RunShardScaling(part, cfg, base, []int{1, shards})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: shard-wall:", err)
		os.Exit(1)
	}
	fmt.Println(bench.ShardScalingReport(results))
	last := results[len(results)-1]
	fmt.Printf("remote mix @%d shards: remote(pay=%d/%d no=%d/%d) 2pc(txns=%d commits=%d aborts=%d) lat(local mean=%.3fms p95=%.3fms | dist mean=%.3fms p95=%.3fms)\n",
		last.Shards, last.RemotePayments, last.Payments, last.RemoteNewOrders, last.NewOrders,
		last.DistTxns, last.DistCommits, last.DistAborts,
		last.LocalMeanMs, last.LocalP95Ms, last.DistMeanMs, last.DistP95Ms)
	// The spec remote rates must survive the drive: >= 1% remote
	// Payments (spec rolls 15%) and >= 5% remote NewOrders (spec ~10%),
	// gated on enough samples per class for the rate to be meaningful,
	// plus at least one genuinely cross-shard 2PC commit on the sharded
	// point.
	if last.Payments >= 30 {
		if rate := float64(last.RemotePayments) / float64(last.Payments); rate < 0.01 {
			fmt.Fprintf(os.Stderr, "pyxis-bench: shard-wall: remote Payment rate %.1f%% below the 1%% spec floor\n", rate*100)
			os.Exit(1)
		}
	}
	if last.NewOrders >= 30 {
		if rate := float64(last.RemoteNewOrders) / float64(last.NewOrders); rate < 0.05 {
			fmt.Fprintf(os.Stderr, "pyxis-bench: shard-wall: remote NewOrder rate %.1f%% below 5%% (spec ~10%%)\n", rate*100)
			os.Exit(1)
		}
	}
	if last.Shards >= 2 && last.RemotePayments+last.RemoteNewOrders >= 10 && last.DistCommits == 0 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: shard-wall: %d remote transactions but no cross-shard 2PC commit\n",
			last.RemotePayments+last.RemoteNewOrders)
		os.Exit(1)
	}
	// Clients spread over WAREHOUSES (not shards), so full shard
	// coverage is only guaranteed once every warehouse has a client.
	if clients >= cfg.Warehouses {
		for s, n := range last.SessionsPerShard {
			if n == 0 {
				fmt.Fprintf(os.Stderr, "pyxis-bench: shard-wall: shard %d served no sessions: %v\n",
					s, last.SessionsPerShard)
				os.Exit(1)
			}
		}
	}
	speedup := 0.0
	if results[0].Tput > 0 {
		speedup = last.Tput / results[0].Tput
	}
	enforce := goruntime.GOMAXPROCS(0) >= 4 && clients >= 8 && !bench.RaceEnabled()
	if enforce && speedup < 1.3 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: shard-wall: %d shards only %.2fx of single-server throughput (want >= 1.3x at %d sessions on %d CPUs)\n",
			shards, speedup, clients, goruntime.GOMAXPROCS(0))
		os.Exit(1)
	}
	if !enforce {
		fmt.Printf("(speedup %.2fx not enforced: needs >= 4 CPUs, >= 8 sessions, no race detector; have %d CPUs, %d sessions, race=%v)\n",
			speedup, goruntime.GOMAXPROCS(0), clients, bench.RaceEnabled())
	}
	// Unlike the -json-gated experiments, shard-wall always writes its
	// report: the scale-out number is the PR's acceptance artifact.
	path, err := bench.SaveReport("", "shard-wall", results,
		gateSkips(enforce, "shard-wall speedup >= 1.3x", clients)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: shard-wall:", err)
		os.Exit(1)
	}
	fmt.Printf("(wrote %s)\n", path)
	fmt.Println()
}

// runRebalanceWall prices live rebalancing: the Zipf-skewed TPC-C mix
// (warehouse 1, shard 0, is the hotspot) against a frozen shard map vs
// the same mix with the advisor live — at the halfway point it folds
// the observed per-warehouse counts into a co-access min-cut, the
// migrator fences/streams/2PC-cuts the chosen warehouses to the cold
// shard, and the router re-homes sessions on the epoch bump while the
// drivers keep running. Three gates ride every run: the live run must
// actually migrate, the cross-shard invariants must hold under the
// final override-carrying map (zero tolerance — a migration that loses
// or duplicates a row fails the bench), and the post-migration
// imbalance must land at or under 1.5. The wall-clock gate — post-
// migration throughput >= 1.2x the frozen baseline's same window — is
// enforced only on parallel hardware (>= 4 CPUs, >= 8 sessions, no
// race detector): with one connection per shard the hot shard's wire
// is the serial resource, and only a multi-core host can bank the
// freed capacity. The report always lands in
// BENCH_rebalance-wall.json with gates_skipped stating exactly which
// gates did not run.
func runRebalanceWall(clients, txns, shards int) {
	if clients < 1 || txns < 1 || shards < 2 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: -clients/-txns must be >= 1 and -shards >= 2")
		os.Exit(2)
	}
	cfg := bench.DefaultTPCC()
	// Enough warehouses per shard that the donor has warm, movable
	// middle-rank warehouses under the Zipf skew (the rank-1 hotspot
	// alone usually exceeds the half-gap budget and must stay put).
	if cfg.Warehouses < 4*shards {
		cfg.Warehouses = 4 * shards
	}
	fmt.Println("== TPC-C wall clock: frozen shard map vs advisor-driven live rebalancing ==")
	fmt.Printf("zipf skew s=1.4 over %d warehouses, %d shards, hotspot on shard 0\n", cfg.Warehouses, shards)
	base := bench.RebalanceCfg{Clients: clients, Txns: txns, Shards: shards, Conns: 1}
	frozen, frozenDBs, frozenMap, err := bench.RunRebalance(cfg, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: rebalance-wall: frozen:", err)
		os.Exit(1)
	}
	fmt.Println("frozen:", frozen)
	if v := bench.CheckShardInvariants(frozenDBs, cfg, frozenMap); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: rebalance-wall: frozen-run invariants violated: %v\n", v)
		os.Exit(1)
	}
	liveCfg := base
	liveCfg.Live = true
	live, liveDBs, liveMap, err := bench.RunRebalance(cfg, liveCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: rebalance-wall: live:", err)
		os.Exit(1)
	}
	fmt.Println("live:  ", live)
	if v := bench.CheckShardInvariants(liveDBs, cfg, liveMap); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: rebalance-wall: post-migration invariants violated: %v\n", v)
		os.Exit(1)
	}
	if live.Migrations < 1 {
		fmt.Fprintln(os.Stderr, "pyxis-bench: rebalance-wall: the advisor never migrated under the skew")
		os.Exit(1)
	}
	if live.ImbalanceAfter > 1.5 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: rebalance-wall: post-migration imbalance %.2f > 1.5 (was %.2f)\n",
			live.ImbalanceAfter, live.ImbalanceBefore)
		os.Exit(1)
	}
	speedup := 0.0
	if frozen.PostTput > 0 {
		speedup = live.PostTput / frozen.PostTput
	}
	enforce := goruntime.GOMAXPROCS(0) >= 4 && clients >= 8 && !bench.RaceEnabled()
	if enforce && speedup < 1.2 {
		fmt.Fprintf(os.Stderr, "pyxis-bench: rebalance-wall: post-migration throughput only %.2fx of the frozen map (want >= 1.2x at %d sessions on %d CPUs)\n",
			speedup, clients, goruntime.GOMAXPROCS(0))
		os.Exit(1)
	}
	if !enforce {
		fmt.Printf("(post-migration speedup %.2fx not enforced: needs >= 4 CPUs, >= 8 sessions, no race detector; have %d CPUs, %d sessions, race=%v)\n",
			speedup, goruntime.GOMAXPROCS(0), clients, bench.RaceEnabled())
	}
	// Like shard-wall, the report is the PR's acceptance artifact:
	// always written, with the skipped gates machine-readable.
	path, err := bench.SaveReport("", "rebalance-wall",
		map[string]*bench.RebalanceResult{"frozen": frozen, "live": live},
		gateSkips(enforce, "rebalance-wall post-migration speedup >= 1.2x", clients)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: rebalance-wall:", err)
		os.Exit(1)
	}
	fmt.Printf("(wrote %s)\n", path)
	fmt.Println()
}

// runMicro1 measures the real execution-block overhead (paper §7.3).
func runMicro1() {
	part, err := bench.Micro1Partition()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: micro1:", err)
		os.Exit(1)
	}
	const n = 20000
	start := time.Now()
	if _, err := bench.Micro1Pyxis(part, n); err != nil {
		fmt.Fprintln(os.Stderr, "pyxis-bench: micro1:", err)
		os.Exit(1)
	}
	pyx := time.Since(start)
	start = time.Now()
	bench.Micro1Native(n)
	nat := time.Since(start)
	fmt.Println("== Microbenchmark 1: execution-block overhead (single-sided linked list) ==")
	fmt.Printf("pyxis runtime: %v   native Go: %v   overhead: %.1fx\n", pyx, nat, float64(pyx)/float64(nat))
	fmt.Println("note: the paper measured ~6x against JVM-native code; a Go block interpreter vs compiled Go is a harsher baseline")
	fmt.Println()
}
