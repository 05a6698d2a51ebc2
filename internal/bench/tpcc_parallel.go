package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/pdg"
	"pyxis/internal/rpc"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// This file ports the simulated TPC-C workload (tpcc.go) to the real
// concurrent driver: N goroutine clients run the PyxJ NewOrder/Payment
// mix through the partitioned runtime over multiplexed wires against
// ONE shared database, measured on the wall clock — the live
// counterpart of the paper's Figs. 9-11 setup, now with genuinely
// parallel sessions exercising the sharded engine and its lock
// manager (stock updates arrive in per-transaction random order, so
// real deadlocks occur and must resolve via victim abort + retry).

// TPCCParallelCfg configures one wall-clock TPC-C run.
type TPCCParallelCfg struct {
	Clients int // concurrent sessions (goroutines)
	Txns    int // transactions per client
	// PaymentEvery makes every k-th transaction a Payment (0 disables
	// payments; 3 gives a roughly TPC-C-like share of the mix).
	PaymentEvery int
	// TCP runs the wires over real loopback TCP mux servers instead of
	// in-process pipes.
	TCP bool
	// MaxRetries bounds deadlock-victim retries per transaction
	// (default 50; every victim abort implies another transaction
	// progressed, so retries converge — the bound guards against a
	// livelocked engine).
	MaxRetries int
}

// TPCCParallelResult aggregates one wall-clock TPC-C run.
type TPCCParallelResult struct {
	Clients   int
	TotalTxns int // committed or intentionally rolled back
	NewOrders int
	Payments  int
	// Deadlocks counts victim aborts that were retried (the workload's
	// stock updates are unordered across transactions, so these are
	// expected under concurrency).
	Deadlocks int
	Elapsed   time.Duration
	Tput      float64
	MeanMs    float64
	P95Ms     float64
	Transfers int64
	// LockWaits/LockDeadlocks snapshot the engine's contention counters
	// after the run.
	LockWaits     int64
	LockDeadlocks int64
}

// TPCCParallelPartition profiles the TPC-C PyxJ program (NewOrder and
// Payment) and solves a partition at the given budget fraction.
func TPCCParallelPartition(c TPCCConfig, budgetFrac float64) (*pyxis.Partition, error) {
	sys, err := profiledTPCCSystem(c)
	if err != nil {
		return nil, err
	}
	return sys.PartitionAt(budgetFrac)
}

// isDeadlockErr matches a deadlock abort whether it surfaces as the
// sqldb sentinel (APP-side statements over the database wire) or as a
// remote runtime error string (DB-side statements inside a control
// transfer).
func isDeadlockErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "deadlock")
}

// parallelTxn is session i's k-th transaction in RunParallelTPCC's
// schedule — the TPCC entry method and its arguments. It is a pure
// function of (i, k), so a reference run can replay the schedule.
func (c TPCCConfig) parallelTxn(cfg TPCCParallelCfg, i, k int) (method string, args []val.Value) {
	seq := int64(i)*1_000_003 + int64(k)
	wid, did, cid, olcnt, seed, rb := c.txnParams(seq)
	if cfg.PaymentEvery > 0 && k%cfg.PaymentEvery == 0 {
		return "payment", []val.Value{val.IntV(wid), val.IntV(did), val.IntV(cid), val.DoubleV(float64(seq%97 + 1))}
	}
	return "newOrder", []val.Value{val.IntV(wid), val.IntV(did), val.IntV(cid), val.IntV(olcnt),
		val.IntV(seed), val.IntV(int64(c.Items)), val.BoolV(rb)}
}

// RunParallelTPCC drives cfg.Clients concurrent sessions of the
// NewOrder/Payment mix against one shared TPC-C database and returns
// the aggregate result plus the database, so callers can audit the
// TPC-C consistency invariants (warehouse YTD vs. district YTDs,
// order counters vs. order rows).
func RunParallelTPCC(part *pyxis.Partition, c TPCCConfig, cfg TPCCParallelCfg) (*TPCCParallelResult, *sqldb.DB, error) {
	if cfg.Clients < 1 || cfg.Txns < 1 {
		return nil, nil, fmt.Errorf("bench: RunParallelTPCC needs Clients >= 1 and Txns >= 1")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	db := c.Load()

	prog := part.Compiled
	dbPeer := runtime.NewPeer(prog, pdg.DB, nil)
	appPeer := runtime.NewPeer(prog, pdg.App, nil)
	newMgr := func() rpc.SessionHandlers {
		return runtime.NewSessionManager(dbPeer, func() dbapi.Conn { return dbapi.NewLocal(db) })
	}

	var ctlMux, dbMux *rpc.MuxClient
	if cfg.TCP {
		ctlSrv, err := rpc.NewMuxServer("127.0.0.1:0", newMgr)
		if err != nil {
			return nil, nil, err
		}
		defer ctlSrv.Close()
		dbSrv, err := rpc.NewMuxServer("127.0.0.1:0", func() rpc.SessionHandlers { return dbapi.MuxHandlers(db) })
		if err != nil {
			return nil, nil, err
		}
		defer dbSrv.Close()
		if ctlMux, err = rpc.DialMux(ctlSrv.Addr()); err != nil {
			return nil, nil, err
		}
		defer ctlMux.Close()
		if dbMux, err = rpc.DialMux(dbSrv.Addr()); err != nil {
			return nil, nil, err
		}
		defer dbMux.Close()
	} else {
		ctlMux = inProcMux(newMgr())
		defer ctlMux.Close()
		dbMux = inProcMux(dbapi.MuxHandlers(db))
		defer dbMux.Close()
	}

	type sessionOut struct {
		lats      []float64
		newOrders int
		payments  int
		deadlocks int
		err       error
	}
	outs := make([]sessionOut, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := &outs[i]
			ctlT := ctlMux.Session()
			dbT := dbMux.Session()
			sess := appPeer.NewSession(dbapi.NewClient(dbT))
			client := runtime.NewClient(sess, ctlT)
			defer client.Close()
			oid, err := client.NewObject("TPCC")
			if err != nil {
				out.err = err
				return
			}
			for k := 0; k < cfg.Txns; k++ {
				method, args := c.parallelTxn(cfg, i, k)
				isPayment := method == "payment"
				t0 := time.Now()
				for attempt := 0; ; attempt++ {
					_, err = client.CallEntry("TPCC."+method, oid, args...)
					if err == nil {
						break
					}
					// Deadlock victims were rolled back engine-side
					// (finishAuto aborts the whole transaction); the entry
					// call is simply retried.
					if isDeadlockErr(err) && attempt < cfg.MaxRetries {
						out.deadlocks++
						continue
					}
					out.err = fmt.Errorf("session %d txn %d: %w", i, k, err)
					return
				}
				out.lats = append(out.lats, float64(time.Since(t0).Microseconds())/1e3)
				if isPayment {
					out.payments++
				} else {
					out.newOrders++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &TPCCParallelResult{Clients: cfg.Clients, Elapsed: elapsed}
	var all []float64
	for i := range outs {
		if outs[i].err != nil {
			return nil, nil, outs[i].err
		}
		all = append(all, outs[i].lats...)
		res.NewOrders += outs[i].newOrders
		res.Payments += outs[i].payments
		res.Deadlocks += outs[i].deadlocks
	}
	res.TotalTxns = len(all)
	res.Tput = float64(len(all)) / elapsed.Seconds()
	agg := Summarize(all)
	res.MeanMs, res.P95Ms = agg.MeanMs, agg.P95Ms
	res.Transfers = dbPeer.Metrics.Snapshot().Transfers
	res.LockWaits, res.LockDeadlocks = db.LockWaits()
	return res, db, nil
}

// CheckTPCCInvariants audits the consistency invariants the concurrent
// NewOrder/Payment mix must preserve (the wall-clock port of the
// ledger lost-update check):
//
//   - per warehouse, w_ytd equals the sum of its districts' d_ytd
//     (TPC-C consistency condition 1 — Payment books both or neither);
//   - per district, d_next_o_id - 1 equals the number of orders and of
//     new_order rows (condition 2/3 — NewOrder's counter increment and
//     inserts commit or roll back atomically).
//
// It returns every violation found (nil means consistent).
func CheckTPCCInvariants(db *sqldb.DB, c TPCCConfig) []string {
	return CheckTPCCInvariantsRange(db, c, 1, c.Warehouses)
}

// CheckTPCCInvariantsRange audits the invariants for warehouses
// loW..hiW (inclusive) only — the per-shard half of the cross-shard
// aggregator, since a shard's database holds just its own warehouse
// range.
func CheckTPCCInvariantsRange(db *sqldb.DB, c TPCCConfig, loW, hiW int) []string {
	var ws []int64
	for w := loW; w <= hiW; w++ {
		ws = append(ws, int64(w))
	}
	return CheckTPCCInvariantsSet(db, c, ws)
}

// CheckTPCCInvariantsSet is CheckTPCCInvariantsRange over an arbitrary
// warehouse set — what a shard owns after live rebalancing, where
// ownership is the base range plus migration Overrides and need not be
// contiguous.
func CheckTPCCInvariantsSet(db *sqldb.DB, c TPCCConfig, ws []int64) []string {
	var violations []string
	s := db.NewSession()
	for _, w := range ws {
		wrs, err := s.Query("SELECT w_ytd FROM warehouse WHERE w_id = ?", val.IntV(int64(w)))
		if err != nil || len(wrs.Rows) != 1 {
			violations = append(violations, fmt.Sprintf("warehouse %d: %v", w, err))
			continue
		}
		drs, err := s.Query("SELECT SUM(d_ytd) FROM district WHERE d_w_id = ?", val.IntV(int64(w)))
		if err != nil {
			violations = append(violations, fmt.Sprintf("district sum w=%d: %v", w, err))
			continue
		}
		// The two totals accumulate the same amounts in different
		// orders, so compare with a relative epsilon: float addition is
		// not associative (current drivers use integer-valued amounts,
		// where the sums are exact, but the API takes arbitrary
		// float64s). A lost update shifts the totals by a whole amount,
		// far outside the tolerance.
		wYTD, dSum := wrs.Rows[0][0].F, drs.Rows[0][0].AsFloat()
		if diff := math.Abs(wYTD - dSum); diff > 1e-6*math.Max(1, math.Abs(wYTD)) {
			violations = append(violations,
				fmt.Sprintf("warehouse %d: w_ytd=%v != sum(d_ytd)=%v (lost Payment update)", w, wYTD, dSum))
		}
		for d := 1; d <= c.DistrictsPerW; d++ {
			nrs, err := s.Query("SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?",
				val.IntV(int64(w)), val.IntV(int64(d)))
			if err != nil || len(nrs.Rows) != 1 {
				violations = append(violations, fmt.Sprintf("district %d/%d: %v", w, d, err))
				continue
			}
			next := nrs.Rows[0][0].I
			ors, err := s.Query("SELECT COUNT(*) FROM orders WHERE o_w_id = ? AND o_d_id = ?",
				val.IntV(int64(w)), val.IntV(int64(d)))
			if err != nil {
				violations = append(violations, fmt.Sprintf("orders count %d/%d: %v", w, d, err))
				continue
			}
			nrs2, err := s.Query("SELECT COUNT(*) FROM new_order WHERE no_w_id = ? AND no_d_id = ?",
				val.IntV(int64(w)), val.IntV(int64(d)))
			if err != nil {
				violations = append(violations, fmt.Sprintf("new_order count %d/%d: %v", w, d, err))
				continue
			}
			if got := ors.Rows[0][0].I; got != next-1 {
				violations = append(violations,
					fmt.Sprintf("district %d/%d: %d orders but d_next_o_id=%d (want %d)", w, d, got, next, got+1))
			}
			if got := nrs2.Rows[0][0].I; got != next-1 {
				violations = append(violations,
					fmt.Sprintf("district %d/%d: %d new_order rows but d_next_o_id=%d", w, d, got, next))
			}
		}
	}
	return violations
}

// String renders the result as one table row block.
func (r *TPCCParallelResult) String() string {
	return fmt.Sprintf("clients=%d txns=%d (no=%d pay=%d dl-retries=%d) elapsed=%v tput=%.0f txn/s lat(mean=%.3fms p95=%.3fms) waits=%d",
		r.Clients, r.TotalTxns, r.NewOrders, r.Payments, r.Deadlocks,
		r.Elapsed.Round(time.Millisecond), r.Tput, r.MeanMs, r.P95Ms, r.LockWaits)
}
