package main

import (
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pyxis"
)

// numClients is the closed loop's size: the host has two CPUs, and an
// application server's threads each wait for their reply.
const numClients = 2

// environment is one completed set-up: the profiled system, its
// partition at the workload's budget, and the deployment on a freshly
// loaded database that has passed the differential check.
type environment struct {
	sys  *pyxis.System
	part *pyxis.Partition
	dep  *deployment
}

// setUp does everything a workload needs before load can start: load
// the database, load and profile the program, partition it, listen and
// dial, and replay the differential sequence against the reference
// interpreter. Its duration is the setup_s metric.
func setUp(w *workload, seed int64) (*environment, error) {
	db := w.app.load()
	sys, err := profiledSystem(w.app)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	part, err := sys.PartitionAt(w.budget)
	if err != nil {
		return nil, fmt.Errorf("partition at budget %.1f: %w", w.budget, err)
	}
	dep, err := deploy(w.app, part, db, w.rtt > 0, false)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	// The check runs with no injected delay: delay changes when bytes
	// arrive, not which bytes, and 200 transactions at 2 ms a round
	// trip would be most of the set-up time.
	if err := differentialCheck(dep, sys, w.app.load(), seed); err != nil {
		dep.close()
		return nil, fmt.Errorf("differential check: %w", err)
	}
	return &environment{sys: sys, part: part, dep: dep}, nil
}

// counters is every cumulative count the benchmark reads, taken at
// one instant while no client runs. Counts fit a float64 exactly.
type counters [numCounters]float64

const (
	cMallocs       = iota
	cCPUNs         // user + system CPU time of this process
	cSysCPUNs      // system alone
	cFaults        // minor page faults
	cGCCPUSec      // Go runtime's estimate of GC CPU time, updated when a cycle ends
	cWireWrites    // Write calls on all four connection ends
	cWireReads     // Read calls
	cWireBytes     // bytes written
	cCtlCalls      // control transfers: MuxClient calls on the control connection
	cDBCalls       // APP-side database operations: calls on the database connection
	cTransfers     // runtime.Metrics of both peers added up, this and the next three
	cTransferBytes // BytesSent
	cBlocks
	cInstrs
	cStmts // sqldb.DB.Stats: selects + inserts + updates + deletes
	cRowsScanned
	cLockWaits // sqldb.DB.LockWaits
	cDeadlocks
	cDBAPIBytes // dbapi.Client payload bytes, both directions
	numCounters
)

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// readCounters also returns the live heap in MB, a level and not a count.
func (d *deployment) readCounters() (counters, float64) {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	wire := d.wire.snapshot()
	app, dbp, sql := d.appPeer.Metrics.Snapshot(), d.dbPeer.Metrics.Snapshot(), d.db.Stats()
	lockWaits, deadlocks := d.db.LockWaits()
	c := counters{
		cMallocs:       float64(ms.Mallocs),
		cCPUNs:         float64(ru.Utime.Nano() + ru.Stime.Nano()),
		cSysCPUNs:      float64(ru.Stime.Nano()),
		cFaults:        float64(ru.Minflt),
		cGCCPUSec:      gcCPUSample[0].Value.Float64(),
		cWireWrites:    float64(wire.writes),
		cWireReads:     float64(wire.reads),
		cWireBytes:     float64(wire.bytesWritten),
		cCtlCalls:      float64(d.ctl.mux.Stats().Calls),
		cDBCalls:       float64(d.dbl.mux.Stats().Calls),
		cTransfers:     float64(app.Transfers + dbp.Transfers),
		cTransferBytes: float64(app.BytesSent + dbp.BytesSent),
		cBlocks:        float64(app.Blocks + dbp.Blocks),
		cInstrs:        float64(app.Instrs + dbp.Instrs),
		cStmts:         float64(sql.Selects + sql.Inserts + sql.Updates + sql.Deletes),
		cRowsScanned:   float64(sql.RowsScanned),
		cLockWaits:     float64(lockWaits),
		cDeadlocks:     float64(deadlocks),
	}
	for _, cl := range d.clients {
		c[cDBAPIBytes] += float64(cl.dbc.BytesSent + cl.dbc.BytesRecv)
	}
	return c, float64(ms.HeapAlloc) / (1 << 20)
}

// window is what one timed phase produced.
type window struct {
	elapsed   time.Duration
	attempted int
	failed    int
	retries   int
	firstErr  error
	latMs     [numClasses][]float64 // completed transactions
	counted   counters              // what the phase added to each counter
	heapMB    float64               // live heap when the phase ended
}

func (w *window) txns() int {
	n := 0
	for _, l := range w.latMs {
		n += len(l)
	}
	return n
}

func (w *window) tput() float64 { return float64(w.txns()) / w.elapsed.Seconds() }

// measure runs the clients for dur between two counter readings. The
// clients stop at transaction boundaries, so every count belongs to a
// completed or failed transaction of this phase.
func (d *deployment) measure(dur time.Duration) *window {
	w := &window{}
	before, _ := d.readCounters()
	start := time.Now()
	d.runClients(dur)
	w.elapsed = time.Since(start)
	w.counted, w.heapMB = d.readCounters()
	for i := range w.counted {
		w.counted[i] -= before[i]
	}
	for _, c := range d.clients {
		w.attempted += c.attempted
		w.failed += c.failed
		w.retries += c.retries
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
		for k := range w.latMs {
			w.latMs[k] = append(w.latMs[k], c.latMs[k]...)
		}
	}
	return w
}

// runOpts sizes one workload run.
type runOpts struct {
	seed   int64
	setups int // set-ups timed for setup_s (the last one is used)
	warmup time.Duration
	window time.Duration // length of the untraced and of the traced window
	traced bool          // follow the untraced window with a traced one
	// probeDiv divides the probes' iteration counts (quick mode).
	probeDiv  int
	spansPath string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Workload  string                    `json:"workload"`
	Correct   bool                      `json:"correct"`
	Problems  []string                  `json:"problems,omitempty"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	WindowS   float64                   `json:"window_s"`
	Latency   map[string]latencySummary `json:"latency"`
	EndToEnd  map[string]metricValue    `json:"end_to_end"`
	PerLayer  map[string]metricValue    `json:"per_layer,omitempty"`
	// NotApplicable gives the reason for every per-layer metric that
	// has no sample on this workload and is therefore reported as 0.
	NotApplicable map[string]string `json:"not_applicable,omitempty"`
	// SelfShare is each span name's share of the traced window's
	// summed transaction time, by self time.
	SelfShare map[string]float64 `json:"self_share_pct,omitempty"`
}

func (r *workloadResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// startClients opens the closed loop's clients on d.
func startClients(d *deployment, seed int64) error {
	for i := 0; i < numClients; i++ {
		rng := rand.New(rand.NewSource(clientSeed(seed, i)))
		if _, err := d.newClient(d.app.newGen(rng)); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

// audit folds a finished window's failures and the app's invariants
// into the result.
func (r *workloadResult) audit(what string, w *workload, d *deployment, win *window) {
	r.Attempted += win.attempted
	r.Failed += win.failed
	if win.failed > 0 {
		r.problem("%s: %d of %d transactions failed, first: %v", what, win.failed, win.attempted, win.firstErr)
	}
	for _, v := range w.app.invariants(d.db) {
		r.problem("%s: invariant: %s", what, v)
	}
}

// loadUp opens the clients on d, switches the injected delay on and
// warms up.
func loadUp(w *workload, d *deployment, o runOpts) error {
	if err := startClients(d, o.seed); err != nil {
		return err
	}
	d.setRTT(w.rtt)
	d.runClients(o.warmup)
	goruntime.GC() // every measured window starts from a collected heap
	return nil
}

// runWorkload sets w up and measures it. An end-to-end run (o.traced
// false) reports the end-to-end metrics from one untraced window of
// o.window. A per-layer run follows the same untraced window, which
// then supplies the counter-based metrics, with a traced window of the
// same length on a second deployment.
func runWorkload(w *workload, o runOpts) (*workloadResult, error) {
	res := &workloadResult{
		Workload: w.Name,
		Correct:  true,
		Latency:  map[string]latencySummary{},
		EndToEnd: map[string]metricValue{},
	}
	var env *environment
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if env != nil {
			env.dep.close()
		}
		t0 := time.Now()
		var err error
		if env, err = setUp(w, o.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if env.dep != nil {
			env.dep.close()
		}
	}()
	if w.app == tpccApp {
		if err := checkRoundTripOrder(env.sys); err != nil {
			return nil, err
		}
	}

	progress("%s: warm-up %v, measuring %v", w.Name, o.warmup, o.window)
	if err := loadUp(w, env.dep, o); err != nil {
		return nil, err
	}
	win := env.dep.measure(o.window)
	res.audit("measured window", w, env.dep, win)
	res.WindowS = win.elapsed.Seconds()
	var lat [numClasses]latencySummary
	for k := txnClass(0); k < numClasses; k++ {
		lat[k] = summarize(win.latMs[k])
		res.Latency[k.String()] = lat[k]
		if lat[k].N == 0 {
			return nil, fmt.Errorf("no %s transaction completed in the measured window: %v", k, win.firstErr)
		}
	}
	n, txns := &win.counted, float64(win.txns())
	e2e := map[string]float64{
		"setup_s":             median(setupS),
		"tput_txn_s":          win.tput(),
		"heavy_p50_ms":        lat[heavy].P50Ms,
		"light_p50_ms":        lat[light].P50Ms,
		"round_trips_per_txn": (n[cCtlCalls] + n[cDBCalls]) / txns,
		"wire_bytes_per_txn":  n[cWireBytes] / txns,
		"allocs_per_txn":      n[cMallocs] / txns,
	}
	for _, m := range endToEndMetrics {
		res.EndToEnd[m.Name] = metricValue{Value: e2e[m.Name], Unit: m.Unit}
	}
	if !o.traced {
		return res, nil
	}

	// Traced window: the same partition on a fresh database with the
	// span wrappers installed, so that both windows cover the same
	// stretch of a deployment's life. The first deployment is dropped,
	// not just closed: its database would otherwise stay live and be
	// marked by every collection of the traced window.
	env.dep.close()
	env.dep = nil
	dep, err := deploy(w.app, env.part, w.app.load(), w.rtt > 0, true)
	if err != nil {
		return nil, fmt.Errorf("traced deploy: %w", err)
	}
	defer dep.close()
	progress("%s: traced warm-up %v, tracing %v", w.Name, o.warmup, o.window)
	if err := loadUp(w, dep, o); err != nil {
		return nil, err
	}
	var tracers []*tracer
	for _, c := range dep.clients {
		c.tr.setOn(true)
		tracers = append(tracers, c.tr)
	}
	twin := dep.measure(o.window)
	for _, tr := range tracers {
		tr.setOn(false)
	}
	res.audit("traced window", w, dep, twin)
	if twin.txns() == 0 {
		return nil, fmt.Errorf("no transaction completed in the traced window: %v", twin.firstErr)
	}
	sum := summarizeTraces(tracers)
	if o.spansPath != "" {
		if err := writeSpans(o.spansPath, tracers); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	if sum.Dropped > 0 {
		res.problem("traced window: %d spans dropped, tracer capacity %d exceeded", sum.Dropped, tracerCap)
	}
	if sum.MaxSelfSumErr > 0.01 {
		res.problem("traced window: self times of a transaction differ from its duration by %.2f %%", 100*sum.MaxSelfSumErr)
	}
	layer := newLayerReport(res)
	layer.fromWindows(win, twin, &sum)
	probes, err := runProbes(o.probeDiv)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layer.setAll(probes)
	offline, err := offlinePipeline(w, o.probeDiv)
	if err != nil {
		return nil, fmt.Errorf("offline pipeline: %w", err)
	}
	layer.setAll(offline)
	layer.finish()
	return res, nil
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
