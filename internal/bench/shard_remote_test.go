package bench

import (
	"strings"
	"testing"

	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestShardTPCCRemoteMix drives the full-spec TPC-C mix — remote
// Payments and remote-supply NewOrders included — against a 2-shard
// tier. Each remote warehouse is one of the home shard's own, so every
// transaction commits on one shard; afterwards each shard must balance
// on its own (its c_balance vs its w_ytd, its s_ytd vs its
// ol_quantity), which a lost or double-booked remote update breaks.
func TestShardTPCCRemoteMix(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallCfg{Clients: 8, Txns: 40, Shards: 2}
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

	if violations := CheckShardInvariants(r.dbs, c); len(violations) > 0 {
		t.Fatalf("invariants violated after remote mix:\n%s", strings.Join(violations, "\n"))
	}
}

// TestCheckShardInvariantsCatchesUnbalancedShard forges shards that
// keep every per-warehouse audit green but do not balance on their
// own, and requires a violation that names the shard. The last case
// balances globally — a customer debited on one shard, the YTD booked
// on the other — so only the per-shard sums can catch it.
func TestCheckShardInvariantsCatchesUnbalancedShard(t *testing.T) {
	c := DefaultTPCC()
	lo0, hi0 := c.WarehouseRange(0, 2)
	lo1, hi1 := c.WarehouseRange(1, 2)
	fresh := func() []*sqldb.DB {
		return []*sqldb.DB{c.LoadRange(int(lo0), int(hi0)), c.LoadRange(int(lo1), int(hi1))}
	}
	exec := func(db *sqldb.DB, sql string, args ...val.Value) {
		t.Helper()
		if _, err := db.NewSession().Exec(sql, args...); err != nil {
			t.Fatal(err)
		}
	}
	const debit = "UPDATE customer SET c_balance = c_balance - 42.0 WHERE c_w_id = ? AND c_d_id = 1 AND c_id = 1"
	for _, tc := range []struct {
		name  string
		forge func(dbs []*sqldb.DB)
		want  []string
	}{
		{"customer debited with no YTD booked", func(dbs []*sqldb.DB) {
			exec(dbs[0], debit, val.IntV(lo0))
		}, []string{"shard 0: sum(c_balance)"}},
		{"stock drawn with no order line", func(dbs []*sqldb.DB) {
			exec(dbs[1], "UPDATE stock SET s_ytd = s_ytd + 5 WHERE s_w_id = ? AND s_i_id = 1", val.IntV(lo1))
		}, []string{"shard 1: sum(s_ytd)"}},
		{"payment split across shards", func(dbs []*sqldb.DB) {
			exec(dbs[0], debit, val.IntV(lo0))
			exec(dbs[1], "UPDATE warehouse SET w_ytd = w_ytd + 42.0 WHERE w_id = ?", val.IntV(lo1))
			exec(dbs[1], "UPDATE district SET d_ytd = d_ytd + 42.0 WHERE d_w_id = ? AND d_id = 1", val.IntV(lo1))
		}, []string{"shard 0: sum(c_balance)", "shard 1: sum(c_balance)"}},
	} {
		dbs := fresh()
		tc.forge(dbs)
		violations := CheckShardInvariants(dbs, c)
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
// NewOrders one at a time on one session of a 2-shard tier, with the
// home and the remote warehouse both on shard 0, and pins what each
// costs on the database wire: its statements and one commit. The
// begin rides the first statement and costs no call.
func TestRemoteExactCounts(t *testing.T) {
	c := DefaultTPCC()
	top, err := WallCfg{Clients: 1, Txns: 1, Shards: 2}.topology(c.Warehouses, nil, c.loadRange)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.Up(top)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const homeW, remoteW = 1, 2
	if c.HomeShard(homeW, 2) != 0 || c.HomeShard(remoteW, 2) != 0 {
		t.Fatalf("warehouses %d and %d are not both on shard 0", homeW, remoteW)
	}
	app := d.Apps[0]
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
	if violations := CheckShardInvariants(d.DBs, c); len(violations) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(violations, "\n"))
	}
}
