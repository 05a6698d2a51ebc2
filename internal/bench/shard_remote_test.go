package bench

import (
	"strings"
	"testing"

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
	res, dbs, err := WallTPCC(part, c, cfg, TPCCMix{PaymentEvery: 3, RemoteMix: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())

	if res.TotalTxns != cfg.Clients*cfg.Txns {
		t.Errorf("%d of %d transactions completed", res.TotalTxns, cfg.Clients*cfg.Txns)
	}
	if res.RemotePayments == 0 || res.RemoteNewOrders == 0 {
		t.Errorf("remote mix degenerated: %d remote payments, %d remote new-orders",
			res.RemotePayments, res.RemoteNewOrders)
	}
	if res.DistCommits == 0 {
		t.Error("no distributed transaction committed: 2PC never exercised")
	}
	if res.DistTxns != res.DistCommits+res.DistAborts {
		t.Errorf("DistTxns=%d != commits %d + aborts %d", res.DistTxns, res.DistCommits, res.DistAborts)
	}
	// The spec rates (15% remote Payment, ~10% remote NewOrder) with a
	// loose floor — the acceptance gates are >=1% and >=10%.
	if rate := float64(res.RemotePayments) / float64(res.Payments); rate < 0.01 {
		t.Errorf("remote Payment rate %.1f%% below the 1%% spec floor", rate*100)
	}
	if rate := float64(res.RemoteNewOrders) / float64(res.NewOrders); rate < 0.05 {
		t.Errorf("remote NewOrder rate %.1f%% below 5%% (spec target ~10%%)", rate*100)
	}

	smap := runtime.ShardMap{Shards: cfg.Shards, Warehouses: c.Warehouses}
	if violations := CheckShardInvariants(dbs, c, smap); len(violations) > 0 {
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
