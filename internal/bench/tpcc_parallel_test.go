package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pyxis"
	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// WallCfg is a closed-loop load and the tier it runs against.
type WallCfg struct {
	Clients int // concurrent clients (goroutines)
	Txns    int // transactions per client
	Conns   int // pooled mux connections per wire (0 means 1)
}

// up stands top up, failing t on deploy.Up's error; the caller closes
// the tier.
func up(t *testing.T, top deploy.Topology) *deploy.Tier {
	t.Helper()
	d, err := deploy.Up(top)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// load is c.Load as a Topology's loader.
func (c TPCCConfig) load() (*sqldb.DB, error) { return c.Load(), nil }

// TPCCMix is the TPC-C workload's schedule.
type TPCCMix struct {
	// PaymentEvery makes every k-th transaction a Payment (0: none).
	PaymentEvery int
	// WriteEvery makes every k-th call a write transaction and the rest
	// the read-only TPCC.lastOrder, which keeps the per-call engine work
	// small so a single server's wire saturates first (0: all writes).
	WriteEvery int
	// RemoteMix enables the TPC-C remote-warehouse rolls (spec
	// §2.4.1.5 and §2.5.1.2): 15% of Payments debit a customer resident
	// at another warehouse, ~10% of NewOrders draw stock from a remote
	// supply warehouse.
	RemoteMix bool
}

// tpccTxn is one scheduled transaction: the TPCC entry method and its
// arguments, plus the raw parameters for the paths that run it as
// native statements instead.
type tpccTxn struct {
	kind   txnKind
	method string
	args   []val.Value
	// remoteW is the customer's (Payment) or supply (NewOrder)
	// warehouse when the remote roll fired, else 0.
	remoteW                    int64
	wid, did, cid, olcnt, seed int64
	rollback                   bool
	amount                     float64
}

// parallelTxn is client i's k-th transaction under mix. It is a pure
// function of its arguments, so a reference run can replay the
// schedule.
func (c TPCCConfig) parallelTxn(mix TPCCMix, i, k int) tpccTxn {
	seq := int64(i)*1_000_003 + int64(k)
	t := tpccTxn{kind: kindNewOrder, method: "newOrder", amount: float64(seq%97 + 1)}
	t.wid, t.did, t.cid, t.olcnt, t.seed, t.rollback = c.txnParams(seq)
	switch {
	case mix.WriteEvery > 1 && k%mix.WriteEvery != 0:
		t.kind, t.method = kindRead, "lastOrder"
		return t
	case mix.PaymentEvery > 0 && k%mix.PaymentEvery == 0:
		t.kind, t.method = kindPayment, "payment"
		t.args = []val.Value{val.IntV(t.wid), val.IntV(t.did), val.IntV(t.cid), val.DoubleV(t.amount)}
	default:
		t.args = []val.Value{val.IntV(t.wid), val.IntV(t.did), val.IntV(t.cid), val.IntV(t.olcnt),
			val.IntV(t.seed), val.IntV(int64(c.Items)), val.BoolV(t.rollback)}
	}
	if mix.RemoteMix {
		payRemote, noRemote, remW := remoteRoll(seq, t.wid, int64(c.Warehouses))
		if (t.kind == kindPayment && payRemote) || (t.kind == kindNewOrder && noRemote) {
			t.remoteW = remW
		}
	}
	return t
}

// remoteRoll derives the TPC-C remote-warehouse decisions for txn k
// against home warehouse wid: 15% of Payments pay for a customer who
// resides at another warehouse (§2.5.1.2), and ~10% of NewOrders draw
// their stock from a remote supply warehouse (§2.4.1.5 rolls 1% per
// order line; over 5-15 lines that is ~10% of orders, which we roll
// once per transaction and apply to every line). The remote warehouse
// is uniform over the other warehouses of [1, warehouses]; with a
// single warehouse there is nothing remote to pick.
func remoteRoll(k, wid, warehouses int64) (payRemote, noRemote bool, remW int64) {
	if warehouses <= 1 {
		return false, false, 0
	}
	h := k*1300637 + 104987
	if h < 0 {
		h = -h
	}
	payRemote = (h/17)%100 < 15
	noRemote = (h/131)%100 < 10
	remW = 1 + h%(warehouses-1)
	if remW >= wid {
		remW++
	}
	return
}

// paymentNative is the hand-written Payment transaction (TPC-C §2.5,
// reduced): paymentRemoteStmts with the customer at the home
// warehouse, then the warehouse's YTD read back. The warehouse row is
// the workload's contention point: every Payment on a warehouse
// serializes on its row lock.
func (c TPCCConfig) paymentNative(conn dbapi.Conn, wid, did, cid int64, amount float64) (float64, error) {
	if err := conn.Begin(); err != nil {
		return 0, err
	}
	abort := func(err error) (float64, error) {
		_ = conn.Rollback()
		return 0, err
	}
	if err := c.paymentRemoteStmts(conn, wid, did, wid, did, cid, amount); err != nil {
		return abort(err)
	}
	rs, err := conn.Query("SELECT w_ytd FROM warehouse WHERE w_id = ?", val.IntV(wid))
	if err != nil {
		return abort(err)
	}
	if len(rs.Rows) == 0 {
		return abort(fmt.Errorf("tpcc: payment: warehouse %d does not exist", wid))
	}
	return rs.Rows[0][0].F, conn.Commit()
}

// paymentRemoteStmts issues the remote-Payment statements in conn's
// already open transaction: the YTD totals book at home warehouse wid,
// the customer debit at the customer's resident warehouse cwid.
func (c TPCCConfig) paymentRemoteStmts(conn dbapi.Conn, wid, did, cwid, cdid, ccid int64, amount float64) error {
	if _, err := conn.Exec("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
		val.DoubleV(amount), val.IntV(wid)); err != nil {
		return err
	}
	if _, err := conn.Exec("UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?",
		val.DoubleV(amount), val.IntV(wid), val.IntV(did)); err != nil {
		return err
	}
	_, err := conn.Exec("UPDATE customer SET c_balance = c_balance - ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
		val.DoubleV(amount), val.IntV(cwid), val.IntV(cdid), val.IntV(ccid))
	return err
}

// rollbackJoin rolls conn back because of err (nil for the intentional
// TPC-C rollback) and returns err with any rollback failure joined on,
// so a connection that died during an abort shows in the failure.
// ErrNoTransaction is not one: a deadlock victim was already rolled
// back engine-side.
func rollbackJoin(err error, conn dbapi.Conn) error {
	if rerr := conn.Rollback(); rerr != nil && !errors.Is(rerr, sqldb.ErrNoTransaction) {
		return errors.Join(err, fmt.Errorf("rollback: %w", rerr))
	}
	return err
}

// tpccStep makes one attempt at client i's k-th transaction under mix:
// an entry call through the partitioned program, or, when the remote
// roll fired, the same statements issued natively in one transaction
// on the session's database connection.
func tpccStep(c TPCCConfig, mix TPCCMix) func(s *deploy.Client, i, k int) (txnOut, error) {
	return func(s *deploy.Client, i, k int) (txnOut, error) {
		t := c.parallelTxn(mix, i, k)
		if t.remoteW == 0 {
			_, err := s.Call("TPCC."+t.method, t.args...)
			return txnOut{kind: t.kind}, err
		}
		out := txnOut{kind: t.kind, remote: true}
		conn := s.Conn
		if err := conn.Begin(); err != nil {
			return out, err
		}
		if t.kind == kindPayment {
			if err := c.paymentRemoteStmts(conn, t.wid, t.did, t.remoteW, t.did, t.cid, t.amount); err != nil {
				return out, rollbackJoin(err, conn)
			}
		} else {
			if _, err := c.newOrderRemoteStmts(conn, t.wid, t.did, t.cid, t.olcnt, t.seed, t.remoteW); err != nil {
				return out, rollbackJoin(err, conn)
			}
			if t.rollback {
				return out, rollbackJoin(nil, conn) // the intentional TPC-C rollback
			}
		}
		return out, conn.Commit()
	}
}

// tpccRun is one TPC-C run: what the clients did, the control transfers
// the DB side served, the database and what CheckTPCCBalances found in
// it.
type tpccRun struct {
	driven
	sum        count
	transfers  int64
	db         *sqldb.DB
	violations []string
}

// runTPCC drives cfg.Clients sessions of the TPC-C mix through part
// against one server.
func runTPCC(t *testing.T, part *pyxis.Partition, c TPCCConfig, cfg WallCfg, mix TPCCMix) *tpccRun {
	t.Helper()
	d := up(t, deploy.Topology{Conns: cfg.Conns, Partition: part, NewDB: c.load})
	defer d.Close()
	r := &tpccRun{db: d.DB}
	var err error
	r.driven, err = drive(cfg.Clients, cfg.Txns,
		func(int) (*deploy.Client, error) { return d.App.Open("TPCC") }, tpccStep(c, mix))
	if err != nil {
		t.Fatal(err)
	}
	r.sum, r.transfers = r.total(), d.Transfers()
	r.violations = CheckTPCCBalances(d.DB, c)
	return r
}

// TestParallelTPCCInvariants is the TPC-C counterpart of the ledger
// lost-update check: 8 concurrent sessions run the NewOrder/Payment mix
// through the partitioned runtime against one shared database, then
// the TPC-C consistency conditions are audited: warehouse YTD totals
// must equal the sum of their district YTDs, and district order
// counters must equal the order rows. Payments hammer the
// per-warehouse hot row (4 warehouses, 8 clients) and NewOrders lock
// stock rows in per-transaction random order, so this exercises lock
// waits and usually real deadlock resolution. At budget 0 every
// statement is issued from the APP side over the database wire, so
// transactions hold row locks across wire round trips. The read-mostly
// row makes every other call the read-only TPCC.lastOrder.
func TestParallelTPCCInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64
		txns   int
		mix    TPCCMix
	}{
		{"budget1", 1.0, 12, TPCCMix{PaymentEvery: 3}},
		{"budget0", 0, 6, TPCCMix{PaymentEvery: 3}},
		{"budget1_read_mostly", 1.0, 6, TPCCMix{WriteEvery: 2, PaymentEvery: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultTPCC()
			part, err := c.PyxisPartition(tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if tc.budget == 1 && part.DBStatements() == 0 {
				t.Fatal("budget 1.0 should place statements on the DB server")
			}
			cfg := WallCfg{Clients: 8, Txns: tc.txns}
			r := runTPCC(t, part, c, cfg, tc.mix)
			if want := cfg.Clients * cfg.Txns; r.sum.txns != want {
				t.Errorf("completed %d txns, want %d", r.sum.txns, want)
			}
			if k := r.sum.kinds; k[kindPayment] == 0 || k[kindNewOrder] == 0 || (tc.mix.WriteEvery > 1) != (k[kindRead] > 0) {
				t.Errorf("degenerate mix: %d new-orders, %d payments, %d reads", k[kindNewOrder], k[kindPayment], k[kindRead])
			}
			if tc.budget == 1 && r.transfers == 0 {
				t.Error("shared DB-side peer served no control transfers")
			}
			for _, v := range r.violations {
				t.Errorf("invariant violated: %s", v)
			}
		})
	}
}

// TestPaymentNativeConcurrent drives the hand-written Payment
// transaction (the PyxJ program's native twin, sharing its SQL) from
// concurrent embedded connections: the warehouse hot rows serialize
// under 2PL, every booked amount must land in both YTD totals, and the
// final totals must equal the sum of the amounts applied. This also
// keeps paymentNative from drifting from the schema.
func TestPaymentNativeConcurrent(t *testing.T) {
	cfg := DefaultTPCC()
	db := cfg.Load()
	const workers, payments = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := dbapi.NewLocal(db)
			for k := 0; k < payments; k++ {
				seq := int64(w)*1_000_003 + int64(k)
				wid, did, cid, _, _, _ := cfg.txnParams(seq)
				if _, err := cfg.paymentNative(conn, wid, did, cid, 1.0); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range CheckTPCCInvariants(db, cfg) {
		t.Errorf("invariant violated: %s", v)
	}
	s := db.NewSession()
	rs, err := s.Query("SELECT SUM(w_ytd) FROM warehouse")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].AsFloat(); got != workers*payments {
		t.Errorf("total w_ytd = %v, want %d (lost Payment under concurrency)", got, workers*payments)
	}
	crs, err := s.Query("SELECT SUM(c_balance) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if got := crs.Rows[0][0].AsFloat(); got != -float64(workers*payments) {
		t.Errorf("total c_balance = %v, want %d", got, -(workers * payments))
	}
}

// deadConn is a connection that died: every rollback fails.
type deadConn struct {
	dbapi.Conn
	err error
}

func (c deadConn) Rollback() error { return c.err }

// TestRollbackJoinSurfacesFailure: a rollback that fails for any
// reason but "nothing to roll back" must show in the error the caller
// returns, without hiding the class of the error that caused the
// abort.
func TestRollbackJoinSurfacesFailure(t *testing.T) {
	cause := fmt.Errorf("update stock: %w", sqldb.ErrDeadlock)
	dead := deadConn{err: errors.New("mux: connection closed")}

	err := rollbackJoin(cause, dead)
	if !errors.Is(err, sqldb.ErrDeadlock) || !strings.Contains(err.Error(), "connection closed") {
		t.Errorf("rollback failure not joined onto the cause: %v", err)
	}
	if class := retry(err, 0); class != classDeadlock {
		t.Errorf("joined error classified %d, want the cause's class", class)
	}
	// The intentional rollback has no cause; a dead connection is then the
	// whole error.
	if err := rollbackJoin(nil, dead); err == nil || !strings.Contains(err.Error(), "connection closed") {
		t.Errorf("failed intentional rollback reported as %v", err)
	}
	// A deadlock victim was rolled back engine-side already.
	gone := deadConn{err: fmt.Errorf("rollback: %w", sqldb.ErrNoTransaction)}
	if err := rollbackJoin(cause, gone); err != cause {
		t.Errorf("ErrNoTransaction joined onto the cause: %v", err)
	}
	if err := rollbackJoin(nil, gone); err != nil {
		t.Errorf("clean intentional rollback reported %v", err)
	}
}
