package bench

import (
	"strings"
	"testing"

	"pyxis/internal/runtime"
	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestRunShardScalingSmoke drives the sharded TPC-C driver end to end
// over loopback TCP: the 1-shard baseline and a 2-shard tier with two
// pooled connections per shard and wire, each point audited by the
// cross-shard invariant aggregator inside WallTPCC. It checks the
// routing story — sessions striped across both shards, every
// transaction completed — rather than throughput (a unit test box
// proves nothing about speedup).
func TestRunShardScalingSmoke(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	base := WallCfg{Clients: 4, Txns: 6}
	var results []*WallResult
	for _, n := range []int{1, 2} {
		cfg := base
		cfg.Shards, cfg.Conns = n, n
		res, _, err := WallTPCC(part, c, cfg, TPCCMix{WriteEvery: 2, PaymentEvery: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("shards=%d: invariants violated: %v", n, res.Violations)
		}
		results = append(results, res)
	}
	t.Logf("\n%s", SweepReport(results, "shards"))
	for _, res := range results {
		if res.TotalTxns != base.Clients*base.Txns {
			t.Errorf("shards=%d: %d of %d transactions completed", res.Shards, res.TotalTxns, base.Clients*base.Txns)
		}
		if res.NewOrders == 0 || res.Payments == 0 || res.Reads == 0 {
			t.Errorf("shards=%d: mix degenerated (no=%d pay=%d read=%d)", res.Shards, res.NewOrders, res.Payments, res.Reads)
		}
	}
	for s, n := range results[1].SessionsPerShard {
		if n == 0 {
			t.Errorf("2-shard point never routed a session to shard %d: %v", s, results[1].SessionsPerShard)
		}
	}
}

// TestRunShardTPCCOverTCP audits the shard databases WallTPCC hands
// back, rather than its own violation list: one database per shard,
// and the cross-shard invariants hold over them.
func TestRunShardTPCCOverTCP(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallCfg{Clients: 4, Txns: 4, Shards: 2, Conns: 2}
	res, dbs, err := WallTPCC(part, c, cfg, TPCCMix{WriteEvery: 2, PaymentEvery: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	smap := runtime.ShardMap{Shards: 2, Warehouses: c.Warehouses}
	if violations := CheckShardInvariants(dbs, c, smap); len(violations) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(violations, "\n"))
	}
	if len(dbs) != 2 {
		t.Fatalf("got %d shard databases, want 2", len(dbs))
	}
}

// TestRunShardTPCCRejectsEmptyShards: more shards than warehouses
// would leave shards with nothing to own.
func TestRunShardTPCCRejectsEmptyShards(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallCfg{Clients: 2, Txns: 2, Shards: c.Warehouses + 1}
	if _, _, err := WallTPCC(part, c, cfg, TPCCMix{}, 0); err == nil {
		t.Fatal("oversharded config accepted")
	}
}

// TestCheckShardInvariantsCatchesCrossShardDrift seeds two consistent
// shard slices, then books a Payment-shaped update on the WRONG
// place: a warehouse YTD bump with no matching district booking, and a
// stray copy of a sibling's warehouse. Per-shard audits alone can miss
// ownership drift; the aggregator's global sums and ownership checks
// must flag both.
func TestCheckShardInvariantsCatchesCrossShardDrift(t *testing.T) {
	c := DefaultTPCC()
	m := runtime.ShardMap{Shards: 2, Warehouses: c.Warehouses}
	lo0, hi0 := m.WarehouseRange(0)
	lo1, hi1 := m.WarehouseRange(1)
	db0 := c.LoadRange(int(lo0), int(hi0))
	db1 := c.LoadRange(int(lo1), int(hi1))

	if violations := CheckShardInvariants([]*sqldb.DB{db0, db1}, c, m); len(violations) > 0 {
		t.Fatalf("fresh shards flagged: %v", violations)
	}

	// A w_ytd bump with no matching d_ytd anywhere — a lost/misbooked
	// Payment half.
	s := db1.NewSession()
	if _, err := s.Exec("UPDATE warehouse SET w_ytd = w_ytd + 100.0 WHERE w_id = ?", val.IntV(lo1)); err != nil {
		t.Fatal(err)
	}
	if violations := CheckShardInvariants([]*sqldb.DB{db0, db1}, c, m); len(violations) == 0 {
		t.Fatal("lost cross-shard update not detected")
	}

	// A stray warehouse copy on the wrong shard: per-range audits pass,
	// ownership must not.
	db2 := c.LoadRange(int(lo0), int(hi0))
	s2 := db2.NewSession()
	if _, err := s2.Exec("INSERT INTO warehouse VALUES (?, ?, ?, 0.0)",
		val.IntV(hi1), val.StrV("stray"), val.DoubleV(0)); err != nil {
		t.Fatal(err)
	}
	db3 := c.LoadRange(int(lo1), int(hi1))
	violations := CheckShardInvariants([]*sqldb.DB{db2, db3}, c, m)
	found := false
	for _, v := range violations {
		if strings.Contains(v, "owns") || strings.Contains(v, "warehouses in total") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stray warehouse ownership not detected: %v", violations)
	}
}
