package bench

import (
	"strings"
	"testing"

	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
	"pyxis/internal/sqldb"
)

// TestTPCCRemoteMix drives the full-spec TPC-C mix — remote Payments
// and remote-supply NewOrders included — against one server. Afterwards
// the database must balance (its c_balance vs its w_ytd, its s_ytd vs
// its ol_quantity), which a lost or double-booked remote update breaks.
func TestTPCCRemoteMix(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallCfg{Clients: 8, Txns: 40}
	r := runTPCC(t, part, c, cfg, TPCCMix{PaymentEvery: 3, RemoteMix: true})
	sum := r.sum
	if sum.txns != cfg.Clients*cfg.Txns {
		t.Errorf("%d of %d transactions completed", sum.txns, cfg.Clients*cfg.Txns)
	}
	remotePay, remoteNO := sum.remote[kindPayment], sum.remote[kindNewOrder]
	if remotePay == 0 || remoteNO == 0 {
		t.Errorf("remote mix degenerated: %d remote payments, %d remote new-orders", remotePay, remoteNO)
	}
	// The spec rates (15% remote Payment, ~10% remote NewOrder) with
	// loose floors.
	if rate := float64(remotePay) / float64(sum.kinds[kindPayment]); rate < 0.01 {
		t.Errorf("remote Payment rate %.1f%% below the 1%% spec floor", rate*100)
	}
	if rate := float64(remoteNO) / float64(sum.kinds[kindNewOrder]); rate < 0.05 {
		t.Errorf("remote NewOrder rate %.1f%% below 5%% (spec target ~10%%)", rate*100)
	}
	if len(r.violations) > 0 {
		t.Fatalf("invariants violated after remote mix:\n%s", strings.Join(r.violations, "\n"))
	}
}

// TestCheckTPCCBalancesCatchesUnbalanced forges databases that do not
// balance and requires the violations that name each imbalance. The
// first two keep every per-warehouse audit green, so only the balance
// sums can catch them.
func TestCheckTPCCBalancesCatchesUnbalanced(t *testing.T) {
	c := DefaultTPCC()
	exec := func(db *sqldb.DB, sql string) {
		t.Helper()
		if _, err := db.NewSession().Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if violations := CheckTPCCBalances(c.Load(), c); len(violations) > 0 {
		t.Fatalf("fresh database flagged: %q", violations)
	}
	for _, tc := range []struct {
		name  string
		forge string
		want  []string
	}{
		{"customer debited with no YTD booked",
			"UPDATE customer SET c_balance = c_balance - 42.0 WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 1",
			[]string{"sum(c_balance)"}},
		{"stock drawn with no order line",
			"UPDATE stock SET s_ytd = s_ytd + 5 WHERE s_w_id = 2 AND s_i_id = 1",
			[]string{"sum(s_ytd)"}},
		{"warehouse YTD booked with no district or customer",
			"UPDATE warehouse SET w_ytd = w_ytd + 100.0 WHERE w_id = 2",
			[]string{"warehouse 2: w_ytd", "sum(c_balance)"}},
	} {
		db := c.Load()
		exec(db, tc.forge)
		violations := CheckTPCCBalances(db, c)
		for _, want := range tc.want {
			if !violationMatches(violations, want) {
				t.Errorf("%s: no violation %q in %q", tc.name, want, violations)
			}
		}
		if len(violations) != len(tc.want) {
			t.Errorf("%s: %d violations, want %d: %q", tc.name, len(violations), len(tc.want), violations)
		}
	}
}

func violationMatches(violations []string, want string) bool {
	for _, v := range violations {
		if strings.Contains(v, want) {
			return true
		}
	}
	return false
}

// TestRemoteExactCounts runs remote Payments and remote-supply
// NewOrders one at a time on one database session and pins what each
// costs on the database wire: its statements and one commit. The
// begin rides the first statement and costs no call.
func TestRemoteExactCounts(t *testing.T) {
	c := DefaultTPCC()
	d := up(t, deploy.Topology{NewDB: c.load})
	defer d.Close()
	const homeW, remoteW = 1, 2
	app := d.App
	sess, err := app.DB.Session()
	if err != nil {
		t.Fatal(err)
	}
	conn := dbapi.NewClient(sess)
	defer conn.Close()

	const olcnt = 5
	for k, tc := range []struct {
		name  string
		stmts func() error
		calls int64
	}{
		{"payment", func() error { return c.paymentRemoteStmts(conn, homeW, 1, remoteW, 2, 3, 10) }, 4},
		{"new-order", func() error {
			_, err := c.newOrderRemoteStmts(conn, homeW, 1, 4, olcnt, 77, remoteW)
			return err
		}, 22},
		{"payment", func() error { return c.paymentRemoteStmts(conn, homeW, 2, remoteW, 1, 5, 20) }, 4},
		{"new-order", func() error {
			_, err := c.newOrderRemoteStmts(conn, homeW, 2, 6, olcnt, 91, remoteW)
			return err
		}, 22},
	} {
		before := app.DB.Stats().Calls
		if err := conn.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := tc.stmts(); err != nil {
			t.Fatalf("txn %d (%s): %v", k, tc.name, err)
		}
		if err := conn.Commit(); err != nil {
			t.Fatalf("txn %d (%s): commit: %v", k, tc.name, err)
		}
		if got := app.DB.Stats().Calls - before; got != tc.calls {
			t.Errorf("txn %d (%s): %d database-wire calls, want %d", k, tc.name, got, tc.calls)
		}
	}
	if violations := CheckTPCCBalances(d.DB, c); len(violations) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(violations, "\n"))
	}
}
