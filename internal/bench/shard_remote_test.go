package bench

import (
	"strings"
	"testing"

	"pyxis/internal/dbapi"
	"pyxis/internal/deploy"
	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestShardTPCCRemoteMixTwoPC drives the full-spec TPC-C mix — remote
// Payments and remote-supply NewOrders included — against a 2-shard
// tier. Remote rolls whose warehouse lands on the other shard run as
// real two-branch 2PC transactions; afterwards the cross-shard
// aggregator must prove no remote update was lost or double-booked
// (global c_balance vs w_ytd, global s_ytd vs ol_quantity).
func TestShardTPCCRemoteMixTwoPC(t *testing.T) {
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
	if sum.distCommits == 0 {
		t.Error("no distributed transaction committed: 2PC never exercised")
	}
	// The spec rates (15% remote Payment, ~10% remote NewOrder) with
	// loose floors.
	if rate := float64(remotePay) / float64(sum.kinds[kindPayment]); rate < 0.01 {
		t.Errorf("remote Payment rate %.1f%% below the 1%% spec floor", rate*100)
	}
	if rate := float64(remoteNO) / float64(sum.kinds[kindNewOrder]); rate < 0.05 {
		t.Errorf("remote NewOrder rate %.1f%% below 5%% (spec target ~10%%)", rate*100)
	}

	smap := runtime.ShardMap{Shards: cfg.Shards, Warehouses: c.Warehouses}
	if violations := CheckShardInvariants(r.dbs, c, smap); len(violations) > 0 {
		t.Fatalf("invariants violated after remote mix:\n%s", strings.Join(violations, "\n"))
	}
}

// TestCheckShardInvariantsCatchesHalfRemote2PC forges the exact
// failure 2PC exists to prevent: one branch of a distributed
// transaction committed without its sibling. Each half keeps every
// per-shard audit green — only the new global cross-shard sums can
// catch it.
func TestCheckShardInvariantsCatchesHalfRemote2PC(t *testing.T) {
	c := DefaultTPCC()
	m := runtime.ShardMap{Shards: 2, Warehouses: c.Warehouses}
	lo0, hi0 := m.WarehouseRange(0)
	lo1, hi1 := m.WarehouseRange(1)
	fresh := func() []*sqldb.DB {
		return []*sqldb.DB{c.LoadRange(int(lo0), int(hi0)), c.LoadRange(int(lo1), int(hi1))}
	}

	// A remote Payment whose customer-debit branch committed but whose
	// home YTD branch did not: c_balance moves, w_ytd does not.
	dbs := fresh()
	if _, err := dbs[0].NewSession().Exec(
		"UPDATE customer SET c_balance = c_balance - 42.0 WHERE c_w_id = ? AND c_d_id = 1 AND c_id = 1",
		val.IntV(lo0)); err != nil {
		t.Fatal(err)
	}
	if !violationMatches(CheckShardInvariants(dbs, c, m), "half-committed remote Payment") {
		t.Error("half-committed remote Payment (customer branch only) not detected")
	}

	// A remote NewOrder whose supply-stock branch committed but whose
	// home order-line branch did not: s_ytd moves, ol_quantity does not.
	dbs = fresh()
	if _, err := dbs[1].NewSession().Exec(
		"UPDATE stock SET s_ytd = s_ytd + 5 WHERE s_w_id = ? AND s_i_id = 1", val.IntV(lo1)); err != nil {
		t.Fatal(err)
	}
	if !violationMatches(CheckShardInvariants(dbs, c, m), "half-committed remote NewOrder") {
		t.Error("half-committed remote NewOrder (stock branch only) not detected")
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

// TestRemoteTwoPCExactCounts runs remote Payments and remote-supply
// NewOrders one at a time over a 2-shard tier, each as two branches
// committed through the 2PC coordinator, and pins what each costs on
// the database wire: its statements, both prepares and both commit
// decisions. The begins ride each branch's first statement and cost no
// call.
func TestRemoteTwoPCExactCounts(t *testing.T) {
	c := DefaultTPCC()
	top, err := WallCfg{Clients: 1, Txns: 1, Shards: 2}.topology(c.Warehouses, nil, nil, c.loadRange)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.Up(top)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const homeW, remoteW = 1, 3
	if d.Router.HomeShard(homeW) == d.Router.HomeShard(remoteW) {
		t.Fatalf("warehouses %d and %d share a shard", homeW, remoteW)
	}
	branch := func(w int64) *dbapi.Client {
		sess, err := d.DB.Session(d.Router.HomeShard(w))
		if err != nil {
			t.Fatal(err)
		}
		return dbapi.NewClient(sess)
	}
	home, remote := branch(homeW), branch(remoteW)
	defer home.Close()
	defer remote.Close()

	const olcnt = 5
	tx := d.Router.TwoPC
	for k, tc := range []struct {
		name  string
		stmts func() error
		calls int64
	}{
		{"payment", func() error { return c.paymentRemoteStmts(home, remote, homeW, 1, remoteW, 2, 3, 10) }, 7},
		{"new-order", func() error {
			_, err := c.newOrderRemoteStmts(home, remote, homeW, 1, 4, olcnt, 77, remoteW)
			return err
		}, 25},
		{"payment", func() error { return c.paymentRemoteStmts(home, remote, homeW, 2, remoteW, 1, 5, 20) }, 7},
		{"new-order", func() error {
			_, err := c.newOrderRemoteStmts(home, remote, homeW, 2, 6, olcnt, 91, remoteW)
			return err
		}, 25},
	} {
		before := d.DB.Stats().Calls
		if err := home.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := remote.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := tc.stmts(); err != nil {
			t.Fatalf("txn %d (%s): %v", k, tc.name, err)
		}
		if err := tx.Commit(tx.NewGID(), home, remote); err != nil {
			t.Fatalf("txn %d (%s): 2PC: %v", k, tc.name, err)
		}
		if got := d.DB.Stats().Calls - before; got != tc.calls {
			t.Errorf("txn %d (%s): %d database-wire calls, want %d", k, tc.name, got, tc.calls)
		}
	}
	if commits, aborts, inDoubt := tx.Stats(); commits != 4 || aborts != 0 || inDoubt != 0 {
		t.Errorf("coordinator: %d commits, %d aborts, %d in doubt; want 4, 0, 0", commits, aborts, inDoubt)
	}
	if violations := CheckShardInvariants(d.DBs, c, d.Router.Map); len(violations) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(violations, "\n"))
	}
}
