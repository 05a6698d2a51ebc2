package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the root of
// the repository lists the same metrics; spec_test.go keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the deployment sees, measured in
// the untraced window. Bound is the share of the base's value by which
// a metric may worsen before -compare calls it worse. Every timing has
// the 25 % the driver allows at most: the build host has hours in which
// the quartiles of ten runs lie 10 to 15 % apart (README.md, "Noise
// floor"). The p95 latencies and the CPU time per transaction spread
// past any bound in such hours and are per-layer metrics for that
// reason.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tput_txn_s", "1/s", higher, 0.25},
	{"heavy_p50_ms", "ms", lower, 0.25},
	{"light_p50_ms", "ms", lower, 0.25},
	{"round_trips_per_txn", "count", lower, 0.05},
	{"wire_bytes_per_txn", "B", lower, 0.05},
	{"allocs_per_txn", "count", lower, 0.05},
}

// perLayerMetrics are single layers' numbers, from the traced window's
// spans, the untraced window's counters, the probes and the offline
// pipeline. README.md says which end-to-end metric each should move.
var perLayerMetrics = []metricDef{
	// runtime
	{Name: "runtime.app_self_us_per_txn", Unit: "us", Better: lower},
	{Name: "runtime.db_self_us_per_txn", Unit: "us", Better: lower},
	{Name: "runtime.transfers_per_txn", Unit: "count", Better: lower},
	{Name: "runtime.transfer_bytes_per_txn", Unit: "B", Better: lower},
	{Name: "runtime.blocks_per_txn", Unit: "count", Better: lower},
	{Name: "runtime.instrs_per_txn", Unit: "count", Better: lower},
	{Name: "runtime.probe_neworder_us", Unit: "us", Better: lower},
	// rpc
	{Name: "rpc.ctl_wire_us_per_call", Unit: "us", Better: lower},
	{Name: "rpc.db_wire_us_per_call", Unit: "us", Better: lower},
	{Name: "rpc.writes_per_txn", Unit: "count", Better: lower},
	{Name: "rpc.reads_per_txn", Unit: "count", Better: lower},
	{Name: "rpc.probe_echo_us", Unit: "us", Better: lower},
	{Name: "rpc.probe_echo_writes", Unit: "count", Better: lower},
	{Name: "rpc.probe_echo_allocs", Unit: "count", Better: lower},
	{Name: "rpc.rtt_observed_ms", Unit: "ms", Better: lower},
	// dbapi
	{Name: "dbapi.client_self_us_per_op", Unit: "us", Better: lower},
	{Name: "dbapi.server_us_per_op", Unit: "us", Better: lower},
	{Name: "dbapi.ops_per_txn", Unit: "count", Better: lower},
	{Name: "dbapi.bytes_per_op", Unit: "B", Better: lower},
	{Name: "dbapi.probe_query_us", Unit: "us", Better: lower},
	// sqldb
	{Name: "sqldb.select_us", Unit: "us", Better: lower},
	{Name: "sqldb.update_us", Unit: "us", Better: lower},
	{Name: "sqldb.insert_us", Unit: "us", Better: lower},
	{Name: "sqldb.commit_us", Unit: "us", Better: lower},
	{Name: "sqldb.stmts_per_txn", Unit: "count", Better: lower},
	{Name: "sqldb.rows_scanned_per_stmt", Unit: "count", Better: lower},
	{Name: "sqldb.lock_waits_per_ktxn", Unit: "count", Better: lower},
	{Name: "sqldb.deadlocks_per_ktxn", Unit: "count", Better: lower},
	{Name: "sqldb.probe_select_ns", Unit: "ns", Better: lower},
	{Name: "sqldb.probe_update_ns", Unit: "ns", Better: lower},
	{Name: "sqldb.probe_insert_ns", Unit: "ns", Better: lower},
	{Name: "sqldb.probe_txn_ns", Unit: "ns", Better: lower},
	{Name: "sqldb.probe_scan_sort_ns", Unit: "ns", Better: lower},
	{Name: "sqldb.probe_parse_ns", Unit: "ns", Better: lower},
	{Name: "sqldb.probe_select_allocs", Unit: "count", Better: lower},
	{Name: "sqldb.probe_update_allocs", Unit: "count", Better: lower},
	{Name: "sqldb.probe_insert_allocs", Unit: "count", Better: lower},
	// offline pipeline
	{Name: "source.load_ms", Unit: "ms", Better: lower},
	{Name: "analysis.run_ms", Unit: "ms", Better: lower},
	{Name: "profile.run_ms", Unit: "ms", Better: lower},
	{Name: "pdg.build_ms", Unit: "ms", Better: lower},
	{Name: "solver.solve_ms", Unit: "ms", Better: lower},
	{Name: "pyxil.generate_ms", Unit: "ms", Better: lower},
	{Name: "compile.compile_ms", Unit: "ms", Better: lower},
	{Name: "compile.fuse_ms", Unit: "ms", Better: lower},
	{Name: "verify.program_ms", Unit: "ms", Better: lower},
	{Name: "pdg.nodes", Unit: "count", Better: lower},
	{Name: "pdg.edges", Unit: "count", Better: lower},
	{Name: "solver.db_stmts", Unit: "count", Better: higher},
	{Name: "pyxil.static_transfers", Unit: "count", Better: lower},
	{Name: "compile.blocks_raw", Unit: "count", Better: lower},
	{Name: "compile.blocks_fused", Unit: "count", Better: lower},
	// process and driver
	{Name: "process.cpu_us_per_txn", Unit: "us", Better: lower},
	{Name: "process.gc_cpu_pct", Unit: "%", Better: lower},
	{Name: "process.heap_mb_end", Unit: "MB", Better: lower},
	{Name: "process.sys_cpu_pct", Unit: "%", Better: lower},
	{Name: "process.page_faults_per_txn", Unit: "count", Better: lower},
	{Name: "driver.heavy_p95_ms", Unit: "ms", Better: lower},
	{Name: "driver.light_p95_ms", Unit: "ms", Better: lower},
	{Name: "driver.heavy_p99_ms", Unit: "ms", Better: lower},
	{Name: "driver.light_p99_ms", Unit: "ms", Better: lower},
	{Name: "driver.retries_per_ktxn", Unit: "count", Better: lower},
	{Name: "driver.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "driver.heavy_round_trips_p50", Unit: "count", Better: lower},
	{Name: "driver.self_sum_err_pct", Unit: "%", Better: lower},
}

// exactCounts are the per-layer metrics that are functions of the
// program and the budget alone and must repeat exactly between runs.
var exactCounts = []string{
	"pdg.nodes", "pdg.edges", "solver.db_stmts", "pyxil.static_transfers",
	"compile.blocks_raw", "compile.blocks_fused",
}

// layerReport collects a workload's per-layer values.
type layerReport struct {
	res  *workloadResult
	vals map[string]float64
}

func newLayerReport(res *workloadResult) *layerReport {
	res.NotApplicable = map[string]string{}
	res.SelfShare = map[string]float64{}
	return &layerReport{res: res, vals: map[string]float64{}}
}

func (l *layerReport) set(name string, v float64) { l.vals[name] = v }

// setSpan reports a per-span mean, or not-applicable when the
// workload produced no span of that kind.
func (l *layerReport) setSpan(name string, st spanStats, v float64, spanKind string) {
	if st.N == 0 {
		l.res.NotApplicable[name] = "the workload produced no " + spanKind + " span"
		v = 0
	}
	l.vals[name] = v
}

// fromWindows fills the metrics taken from the untraced window's
// counters and latencies and from the traced window's spans.
func (l *layerReport) fromWindows(win, twin *window, sum *traceSummary) {
	n, txns := &win.counted, float64(win.txns())
	l.set("runtime.transfers_per_txn", n[cTransfers]/txns)
	l.set("runtime.transfer_bytes_per_txn", n[cTransferBytes]/txns)
	l.set("runtime.blocks_per_txn", n[cBlocks]/txns)
	l.set("runtime.instrs_per_txn", n[cInstrs]/txns)
	l.set("rpc.writes_per_txn", n[cWireWrites]/txns)
	l.set("rpc.reads_per_txn", n[cWireReads]/txns)

	l.set("dbapi.ops_per_txn", n[cDBCalls]/txns)
	if n[cDBCalls] == 0 {
		l.res.NotApplicable["dbapi.bytes_per_op"] = "the workload made no APP-side database call"
		l.set("dbapi.bytes_per_op", 0)
	} else {
		l.set("dbapi.bytes_per_op", n[cDBAPIBytes]/n[cDBCalls])
	}

	l.set("sqldb.stmts_per_txn", n[cStmts]/txns)
	l.set("sqldb.rows_scanned_per_stmt", n[cRowsScanned]/n[cStmts])
	l.set("sqldb.lock_waits_per_ktxn", 1000*n[cLockWaits]/txns)
	l.set("sqldb.deadlocks_per_ktxn", 1000*n[cDeadlocks]/txns)

	l.set("process.cpu_us_per_txn", n[cCPUNs]/1e3/txns)
	l.set("process.gc_cpu_pct", 100*n[cGCCPUSec]/(n[cCPUNs]/1e9))
	l.set("process.heap_mb_end", win.heapMB)
	l.set("process.sys_cpu_pct", 100*n[cSysCPUNs]/n[cCPUNs])
	l.set("process.page_faults_per_txn", n[cFaults]/txns)
	l.set("driver.heavy_p95_ms", l.res.Latency[heavy.String()].P95Ms)
	l.set("driver.light_p95_ms", l.res.Latency[light.String()].P95Ms)
	l.set("driver.heavy_p99_ms", l.res.Latency[heavy.String()].P99Ms)
	l.set("driver.light_p99_ms", l.res.Latency[light.String()].P99Ms)
	l.set("driver.retries_per_ktxn", 1000*float64(win.retries)/txns)
	l.set("driver.trace_overhead_pct", 100*(win.tput()-twin.tput())/win.tput())

	// Spans.
	ttxns := float64(sum.Txns)
	by := sum.ByName
	l.set("runtime.app_self_us_per_txn", float64(by[spTxn].Self)/ttxns/1e3)
	l.set("runtime.db_self_us_per_txn", float64(by[spRuntimeDB].Self)/ttxns/1e3)
	l.setSpan("rpc.ctl_wire_us_per_call", by[spRPCCtl], by[spRPCCtl].meanSelfUs(), "rpc.ctl")
	l.setSpan("rpc.db_wire_us_per_call", by[spRPCDB], by[spRPCDB].meanSelfUs(), "rpc.db")
	l.setSpan("dbapi.client_self_us_per_op", by[spDBAPIClient], by[spDBAPIClient].meanSelfUs(), "dbapi.client")
	l.setSpan("dbapi.server_us_per_op", by[spDBAPIServer], by[spDBAPIServer].meanDurUs(), "dbapi.server")
	for kind, name := range map[stmtKind]string{
		kindSelect: "sqldb.select_us", kindUpdate: "sqldb.update_us",
		kindInsert: "sqldb.insert_us", kindCommit: "sqldb.commit_us",
	} {
		st := sum.SQLKind[kind]
		l.setSpan(name, st, st.meanDurUs(), "sqldb.local "+stmtKindNames[kind])
	}
	l.set("driver.heavy_round_trips_p50", sum.HeavyRoundTripsP50)
	l.set("driver.self_sum_err_pct", 100*sum.MaxSelfSumErr)

	var total int64
	for _, st := range by {
		total += st.Self
	}
	for name, st := range by {
		l.res.SelfShare[spanNames[name]] = 100 * float64(st.Self) / float64(total)
	}
}

func (l *layerReport) setAll(vals map[string]float64) {
	for name, v := range vals {
		l.set(name, v)
	}
}

// finish moves the values into the result under the declared units
// and reports any name that is declared but unset, or set but
// undeclared, as a problem: the metric list is a contract.
func (l *layerReport) finish() {
	l.res.PerLayer = map[string]metricValue{}
	for _, m := range perLayerMetrics {
		v, ok := l.vals[m.Name]
		if !ok {
			l.res.problem("per-layer metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			l.res.problem("per-layer metric %s is %v", m.Name, v)
			v = 0 // JSON has no such number
		}
		l.res.PerLayer[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(l.vals, m.Name)
	}
	var extra []string
	for name := range l.vals {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		l.res.problem("per-layer metric %s is not declared", name)
	}
}
