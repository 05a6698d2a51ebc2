package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"pyxis/internal/deploy"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
)

// This file is the one wall-clock driver. Every experiment that runs
// real goroutine clients against real DB-side runtimes — ledger and
// TPC-C scaling, the connection pool, admission control, dynamic
// switching, the sharded tier with cross-shard 2PC, live rebalancing —
// is deploy.Up (stand the tier up), drive (fan the clients out), retry
// (decide what a failed attempt means) and WallResult (say what
// happened). What differs between two experiments is the topology they
// stand up and the step their clients run (wall_steps.go); nothing here
// knows which experiment called it.

// The values below were fields of the per-driver configs that no test,
// command or example ever set. Two more are simply the runtime's own
// defaults now: the switcher's dead-band (runtime.NewSwitcher: 0, the
// paper's behaviour) and the advisor's imbalance trigger
// (runtime.NewAdvisor: 1.25).
const (
	// maxRetries bounds deadlock-victim and shed retries per
	// transaction. Every victim abort implies another transaction
	// progressed, so retries converge — the bound guards against a
	// livelocked engine. Fence and re-home retries do not count: they
	// end when the move commits or its TTL lapses (fenceWait).
	maxRetries = 50
	// openTimeout bounds how long one client keeps retrying session
	// admission. Capacity frees as admitted clients finish, so waits are
	// bounded by the workload, not the timeout.
	openTimeout = 120 * time.Second
	// phaseStagger offsets session i's phase start by i*phaseStagger so
	// the EWMA's flip lands at different transaction indices in
	// different sessions.
	phaseStagger = 3 * time.Millisecond
	// zipfS is the warehouse-pick skew exponent of the rebalancing mix:
	// rank 1 (warehouse 1, shard 0) is the hotspot.
	zipfS = 1.4
	// fenceTTL is the migration fence's crash-safety TTL. It must
	// comfortably exceed one move's stream time, or writers wake
	// mid-stream on drained rows.
	fenceTTL = 10 * time.Second
	// fenceWait is how long one transaction keeps backing off on a
	// fenced range before a stuck fence fails the run instead of
	// hanging it.
	fenceWait = fenceTTL + 5*time.Second
	// rebalancePaymentEvery makes every k-th transaction of the
	// rebalancing mix a Payment; the rest are NewOrders.
	rebalancePaymentEvery = 2
)

// ---------------------------------------------------------------------------
// retry: one classifier
// ---------------------------------------------------------------------------

// errClass is what a failed attempt means for the transaction that
// made it.
type errClass int

const (
	classFatal    errClass = iota // fail the run
	classDeadlock                 // victim abort or 2PC abort: rolled back engine-side, run it again
	classShed                     // rpc.ErrOverloaded: the server refused the work before any state existed
	classFenced                   // the range is mid-migration: wait for cutover or the fence's TTL
	classMoved                    // the range lives on another shard now: re-home, then run it again
)

// isDeadlockErr matches a deadlock abort whether it surfaces as the
// sqldb sentinel (APP-side statements over the database wire) or as a
// remote runtime error string (DB-side statements inside a control
// transfer).
func isDeadlockErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "deadlock")
}

// retry maps the error of a transaction's attempt-th budgeted retry to
// its class and the pause to take before the next attempt. A class a
// topology cannot produce simply never fires. classFatal means stop:
// the error is unknown, or the budget (maxRetries deadlock and shed
// retries per transaction) is spent.
func retry(err error, attempt int) (errClass, time.Duration) {
	switch {
	case errors.Is(err, sqldb.ErrRangeFenced):
		return classFenced, 500 * time.Microsecond
	case errors.Is(err, sqldb.ErrRangeMoved), errors.Is(err, runtime.ErrWrongShard):
		// The move committed and the old home tombstoned the range; the
		// successor map is published or about to be.
		return classMoved, 200 * time.Microsecond
	case attempt >= maxRetries:
		return classFatal, 0
	case errors.Is(err, rpc.ErrOverloaded):
		// Jittered, so sessions shed together do not retry in lockstep
		// and re-flood the server at the same instant.
		return classShed, runtime.ShedBackoff(attempt)
	case isDeadlockErr(err), errors.Is(err, runtime.ErrTxnAborted):
		// A 2PC abort retries like a deadlock victim: the usual cause is
		// a branch losing its transaction to deadlock resolution before
		// prepare. The victim was rolled back engine-side and the winner
		// is progressing, so it runs again at once.
		return classDeadlock, 0
	}
	return classFatal, 0
}

// ---------------------------------------------------------------------------
// drive: one fan-out
// ---------------------------------------------------------------------------

// session is one client's open state. A session that caches routing
// decisions also implements rehomer, one that must outlive its last
// transaction holder.
type session interface{ Close() error }

// rehomer drops whatever the session cached under a shard map that has
// since moved on.
type rehomer interface{ rehome() }

// holder blocks a client that completed all its transactions until the
// session may close. A client leaving on an error never holds: the run
// is failing and should say so now.
type holder interface{ hold() }

// txnKind is the class a completed transaction is counted under.
type txnKind int

const (
	kindNewOrder txnKind = iota
	kindPayment
	kindRead
	kindDeposit
	numKinds
)

// txnOut says what one completed transaction was.
type txnOut struct {
	kind   txnKind
	remote bool // the remote-warehouse roll fired
	// dist marks a transaction that ran as two 2PC branches over two
	// shards' wires; distCommit says it committed (the alternative is
	// the intentional TPC-C rollback).
	dist, distCommit bool
	low              bool // the low-budget deployment served it
	sheds            int  // sheds absorbed inside the call (runtime.DynamicClient)
}

// clientTally is what one client's goroutine counted.
type clientTally struct {
	local, dist                            []float64 // latencies in ms, by class
	kinds                                  [numKinds]int
	remote                                 [numKinds]int
	distCommits, distAborts                int
	low                                    int64
	deadlocks, sheds, fenceRetries, rehome int
	err                                    error
}

// driven is one drive call's outcome.
type driven struct {
	clients []clientTally
	elapsed time.Duration
}

// drive runs clients concurrent clients, each its own goroutine with
// its own session from open(i), through txns transactions each. step
// makes ONE attempt at client i's k-th transaction; what a failed
// attempt means is retry's decision, not the step's. The schedule is
// whatever pure function of (i, k) the step computes, so a reference
// run can replay it. A session that open could not get because the
// server shed it is retried until openTimeout: a refused session holds
// no server state.
func drive[S session](clients, txns int, open func(i int) (S, error), step func(s S, i, k int) (txnOut, error)) (driven, error) {
	out := driven{clients: make([]clientTally, clients)}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range out.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &out.clients[i]
			if err := runClient(t, i, txns, open, step); err != nil {
				t.err = fmt.Errorf("client %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	for i := range out.clients {
		if err := out.clients[i].err; err != nil {
			return out, err
		}
	}
	return out, nil
}

// runClient is client i's loop: admission, then txns transactions,
// each attempted until it completes or retry says stop.
func runClient[S session](t *clientTally, i, txns int, open func(i int) (S, error), step func(s S, i, k int) (txnOut, error)) error {
	var s S
	for attempt, deadline := 0, time.Now().Add(openTimeout); ; attempt++ {
		var err error
		if s, err = open(i); err == nil {
			break
		}
		if !errors.Is(err, rpc.ErrOverloaded) {
			return fmt.Errorf("open: %w", err)
		}
		t.sheds++
		if time.Now().After(deadline) {
			return fmt.Errorf("never admitted within %v: %w", openTimeout, err)
		}
		time.Sleep(runtime.ShedBackoff(attempt))
	}
	defer s.Close()
	for k := 0; k < txns; k++ {
		t0 := time.Now()
		for attempt := 0; ; {
			o, err := step(s, i, k)
			t.sheds += o.sheds
			if err == nil {
				t.record(o, float64(time.Since(t0).Microseconds())/1e3)
				break
			}
			class, pause := retry(err, attempt)
			switch class {
			case classDeadlock:
				t.deadlocks++
				attempt++
			case classShed:
				t.sheds++
				attempt++
			case classFenced:
				if time.Since(t0) > fenceWait {
					return fmt.Errorf("txn %d: fence never cleared: %w", k, err)
				}
				t.fenceRetries++
			case classMoved:
				r, ok := any(s).(rehomer)
				if !ok {
					return fmt.Errorf("txn %d: session cannot re-home: %w", k, err)
				}
				r.rehome()
				t.rehome++
			default:
				return fmt.Errorf("txn %d: %w", k, err)
			}
			time.Sleep(pause)
		}
	}
	if h, ok := any(s).(holder); ok {
		h.hold()
	}
	return nil
}

func (t *clientTally) record(o txnOut, ms float64) {
	t.kinds[o.kind]++
	if o.remote {
		t.remote[o.kind]++
	}
	if o.low {
		t.low++
	}
	switch {
	case !o.dist:
		t.local = append(t.local, ms)
		return
	case o.distCommit:
		t.distCommits++
	default:
		t.distAborts++
	}
	t.dist = append(t.dist, ms)
}

// ---------------------------------------------------------------------------
// WallResult: one result
// ---------------------------------------------------------------------------

// SessionStat is one session's latency profile.
type SessionStat struct {
	N                    int
	MeanMs, P95Ms, MaxMs float64
}

// Summarize computes mean/p95/max over a latency sample in
// milliseconds (shared by the bench driver and cmd/pyxis-app).
func Summarize(lats []float64) SessionStat {
	st := SessionStat{N: len(lats)}
	if len(lats) == 0 {
		return st
	}
	sorted := append([]float64{}, lats...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	st.MeanMs = sum / float64(len(sorted))
	// Nearest-rank percentile: ceil(q*n) is the rank, 1-indexed.
	i := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	st.P95Ms = sorted[i]
	st.MaxMs = sorted[len(sorted)-1]
	return st
}

// WallResult is what one wall-clock run measured: the tier and the
// load, what ran and what was retried by class, latency, and — for the
// experiments that have them — the switching phases, the admission
// controller's snapshot and the migration.
type WallResult struct {
	// Arm names the result within its experiment ("frozen", "live",
	// "budget 1.0", ...).
	Arm string `json:",omitempty"`

	Shards     int
	Conns      int
	Warehouses int `json:",omitempty"`
	Clients    int
	// Offered is the number of transactions the clients set out to run;
	// TotalTxns the number that completed (committed or intentionally
	// rolled back). They differ only if work was dropped.
	Offered    int
	TotalTxns  int
	Elapsed    time.Duration
	Tput       float64 // transactions/second across all sessions
	MeanMs     float64
	P95Ms      float64
	PerSession []SessionStat

	NewOrders int
	Payments  int
	Reads     int
	Deposits  int

	// Retries by class (see retry). Deadlocks counts victim and 2PC
	// aborts that were run again, Sheds rpc.ErrOverloaded replies
	// absorbed by backoff, FenceRetries back-offs on a range in
	// migration, Rehomes cached sessions dropped because the shard map
	// moved on.
	Deadlocks    int
	Sheds        int
	FenceRetries int
	Rehomes      int

	// Transfers is the number of control transfers the DB-side peers
	// served; LockWaits/LockDeadlocks are the engines' contention
	// counters after the run.
	Transfers     int64
	LockWaits     int64
	LockDeadlocks int64

	// SessionsPerConn and SessionsPerShard say where the pools and the
	// shard map placed the clients' control sessions — the striping and
	// routing audits (a broken pool or map piles everything on index 0).
	SessionsPerConn  []int `json:",omitempty"`
	SessionsPerShard []int `json:",omitempty"`

	// Remote-mix accounting (all zero when the mix has no remote rolls).
	// RemotePayments/RemoteNewOrders count transactions whose remote
	// roll fired, whether or not the remote warehouse crossed a shard
	// boundary; DistTxns counts the ones that did cross and therefore
	// ran as two 2PC branches, split into DistCommits and DistAborts
	// (intentional TPC-C rollbacks of a distributed NewOrder). Local
	// latency covers every call that stayed on one shard, Dist the
	// cross-shard ones: DistMeanMs prices the extra prepare round trip.
	RemotePayments  int
	RemoteNewOrders int
	DistTxns        int
	DistCommits     int
	DistAborts      int
	LocalMeanMs     float64
	LocalP95Ms      float64
	DistMeanMs      float64
	DistP95Ms       float64

	// Violations is every consistency invariant the run's audit found
	// broken (experiment rows fill it in; see Experiment).
	Violations []string

	// Phases and Reports: the dynamic-switching ramp, and how many
	// piggy-backed load reports fed the switcher's EWMA.
	Phases  []PhaseResult `json:",omitempty"`
	Reports int64         `json:",omitempty"`
	// Admission: the server-side controller after an admission-gated
	// run.
	Admission *AdmissionResult `json:",omitempty"`
	// Migration: what the rebalancing controller did and saw.
	Migration *MigrationResult `json:",omitempty"`

	mu   sync.Mutex   // guards the placement audits while clients open
	lats [][]float64  // per client
	all  [2][]float64 // local, dist
}

// PhaseResult is one phase of the forced DB-load ramp.
type PhaseResult struct {
	Name    string
	Load    float64 // forced external load during the phase
	Txns    int
	Elapsed time.Duration
	Tput    float64
	// LowPicks/HighPicks count completed calls per deployment across
	// all sessions in this phase; LowShare = low / (low + high).
	LowPicks, HighPicks int64
	LowShare            float64
	// EWMA is the switcher's average when the phase ended.
	EWMA float64
	// PerSessionLow is each session's completed low-budget calls this
	// phase; DistinctMixes counts distinct values in it — >= 2 proves
	// sessions routed differently within the same phase.
	PerSessionLow []int64
	DistinctMixes int
}

// AdmissionResult is the admission controller's settled state after a
// run against a server that admits MaxSessions sessions at once.
type AdmissionResult struct {
	MaxSessions int
	runtime.AdmissionStats
}

// MigrationResult is the rebalancing controller's report. Migrations
// is the number of completed moves, MovedWarehouses every warehouse
// that changed shards, RowsMoved the streamed rows, MigrationMs the
// fence-to-publish wall time. ImbalanceBefore is the advisor's
// hottest/median ratio at the trigger point, ImbalanceAfter the same
// ratio over the observation window that followed under the final map.
// PostTput is txn/s from the end of the migration (the halfway point,
// when the map stayed frozen) to the finish.
type MigrationResult struct {
	Migrations      int
	MovedWarehouses []int64
	RowsMoved       int
	MigrationMs     float64
	ImbalanceBefore float64
	ImbalanceAfter  float64
	PostTput        float64
	FinalEpoch      uint64
	// FinalMap is the map the run ended under, for auditing ownership
	// after a move.
	FinalMap runtime.ShardMap `json:"-"`
}

// newWallResult describes the tier and the load; fold adds what ran.
func newWallResult(d *deploy.Tier, clients, offered int) *WallResult {
	m := d.Router.CurrentMap()
	return &WallResult{Shards: m.NumShards(), Conns: d.DB.ConnsPerShard(), Warehouses: m.Warehouses,
		Clients: clients, Offered: offered, lats: make([][]float64, clients)}
}

// placed records where a client's control session landed.
func (r *WallResult) placed(d *deploy.Tier, c *deploy.Client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.SessionsPerConn == nil {
		r.SessionsPerConn, r.SessionsPerShard = make([]int, r.Conns), make([]int, r.Shards)
	}
	for i := range r.SessionsPerConn {
		if c.Ctl.Conn() == d.Ctl.Conn(c.Shard, i) {
			r.SessionsPerConn[i]++
		}
	}
	r.SessionsPerShard[c.Shard]++
}

// fold adds one drive call's tallies and re-derives the totals, so a
// run made of several drives (the ramp's phases) reads as one.
func (r *WallResult) fold(o driven) {
	r.Elapsed += o.elapsed
	for i := range o.clients {
		t := &o.clients[i]
		r.all[0] = append(r.all[0], t.local...)
		r.all[1] = append(r.all[1], t.dist...)
		r.lats[i] = append(append(r.lats[i], t.local...), t.dist...)
		r.NewOrders += t.kinds[kindNewOrder]
		r.Payments += t.kinds[kindPayment]
		r.Reads += t.kinds[kindRead]
		r.Deposits += t.kinds[kindDeposit]
		r.RemoteNewOrders += t.remote[kindNewOrder]
		r.RemotePayments += t.remote[kindPayment]
		r.DistCommits += t.distCommits
		r.DistAborts += t.distAborts
		r.Deadlocks += t.deadlocks
		r.Sheds += t.sheds
		r.FenceRetries += t.fenceRetries
		r.Rehomes += t.rehome
	}
	r.DistTxns = r.DistCommits + r.DistAborts
	r.TotalTxns = len(r.all[0]) + len(r.all[1])
	if s := r.Elapsed.Seconds(); s > 0 {
		r.Tput = float64(r.TotalTxns) / s
	}
	local, dist := Summarize(r.all[0]), Summarize(r.all[1])
	r.LocalMeanMs, r.LocalP95Ms = local.MeanMs, local.P95Ms
	r.DistMeanMs, r.DistP95Ms = dist.MeanMs, dist.P95Ms
	agg := Summarize(append(append([]float64{}, r.all[0]...), r.all[1]...))
	r.MeanMs, r.P95Ms = agg.MeanMs, agg.P95Ms
	r.PerSession = r.PerSession[:0]
	for _, l := range r.lats {
		r.PerSession = append(r.PerSession, Summarize(l))
	}
}

// observe snapshots the tier's own counters after the run.
func (r *WallResult) observe(d *deploy.Tier) {
	r.Transfers = d.Transfers()
	for _, db := range d.DBs {
		w, dl := db.LockWaits()
		r.LockWaits += w
		r.LockDeadlocks += dl
	}
}

// String renders the result as one block: the phase table when there
// is one, the line every run has, and a clause per section present.
func (r *WallResult) String() string {
	var b strings.Builder
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "%-8s %7s %6s %12s %10s %10s %8s %8s\n",
			"phase", "load%", "txns", "tput(txn/s)", "low-picks", "high-picks", "low%", "ewma%")
		for _, ph := range r.Phases {
			fmt.Fprintf(&b, "%-8s %7.0f %6d %12.0f %10d %10d %7.0f%% %7.1f\n",
				ph.Name, ph.Load, ph.Txns, ph.Tput, ph.LowPicks, ph.HighPicks, ph.LowShare*100, ph.EWMA)
		}
	}
	if r.Arm != "" {
		fmt.Fprintf(&b, "%s: ", r.Arm)
	}
	fmt.Fprintf(&b, "shards=%d conns=%d clients=%d txns=%d (no=%d pay=%d read=%d dep=%d) retries(dl=%d shed=%d fence=%d rehome=%d) elapsed=%v tput=%.0f txn/s lat(mean=%.3fms p95=%.3fms) transfers=%d waits=%d",
		r.Shards, r.Conns, r.Clients, r.TotalTxns, r.NewOrders, r.Payments, r.Reads, r.Deposits,
		r.Deadlocks, r.Sheds, r.FenceRetries, r.Rehomes,
		r.Elapsed.Round(time.Millisecond), r.Tput, r.MeanMs, r.P95Ms, r.Transfers, r.LockWaits)
	if r.SessionsPerConn != nil {
		fmt.Fprintf(&b, " sessions/conn=%v sessions/shard=%v", r.SessionsPerConn, r.SessionsPerShard)
	}
	if r.RemotePayments+r.RemoteNewOrders > 0 {
		fmt.Fprintf(&b, " remote(pay=%d/%d no=%d/%d) 2pc(txns=%d commits=%d aborts=%d) lat(local mean=%.3fms p95=%.3fms | dist mean=%.3fms p95=%.3fms)",
			r.RemotePayments, r.Payments, r.RemoteNewOrders, r.NewOrders, r.DistTxns, r.DistCommits, r.DistAborts,
			r.LocalMeanMs, r.LocalP95Ms, r.DistMeanMs, r.DistP95Ms)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, " load-reports=%d", r.Reports)
	}
	if a := r.Admission; a != nil {
		fmt.Fprintf(&b, " admission(max-sessions=%d shed-sessions=%d shed-calls=%d)", a.MaxSessions, a.ShedSessions, a.ShedCalls)
	}
	if m := r.Migration; m != nil {
		fmt.Fprintf(&b, " post-tput=%.0f txn/s imbalance=%.2f", m.PostTput, m.ImbalanceAfter)
		if m.Migrations > 0 {
			fmt.Fprintf(&b, " migrated=%v (%d rows in %.0fms, %.2f->%.2f, epoch %d)",
				m.MovedWarehouses, m.RowsMoved, m.MigrationMs, m.ImbalanceBefore, m.ImbalanceAfter, m.FinalEpoch)
		}
	}
	return b.String()
}

// sweepColumn is r's value of what a sweep can vary.
func sweepColumn(r *WallResult, column string) int {
	switch column {
	case "conns":
		return r.Conns
	case "shards":
		return r.Shards
	}
	return r.Clients
}

// SweepReport renders a sweep over column ("clients", "conns" or
// "shards") as a table with speedup relative to the first point —
// conventionally the 1-client, 1-connection or 1-shard deployment, so
// the ratio of any later point to it is the price of what the sweep
// multiplied.
func SweepReport(results []*WallResult, column string) string {
	if len(results) == 0 {
		return "(no sweep points)"
	}
	base := results[0].Tput
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %8s %10s %12s %10s %10s %9s\n", column, "clients", "txns", "tput(txn/s)", "mean(ms)", "p95(ms)", "speedup")
	for _, r := range results {
		speedup := 0.0
		if base > 0 {
			speedup = r.Tput / base
		}
		fmt.Fprintf(&b, "%8d %8d %10d %12.0f %10.3f %10.3f %8.2fx\n",
			sweepColumn(r, column), r.Clients, r.TotalTxns, r.Tput, r.MeanMs, r.P95Ms, speedup)
	}
	return strings.TrimRight(b.String(), "\n")
}
