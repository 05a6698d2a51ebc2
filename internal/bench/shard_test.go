package bench

import (
	"strings"
	"testing"

	"pyxis/internal/sqldb"
	"pyxis/internal/val"
)

// TestRunShardScalingSmoke drives the sharded TPC-C mix end to end
// over loopback TCP: the 1-shard baseline and a 2-shard tier with two
// pooled connections per shard and wire, each point audited by the
// cross-shard invariant aggregator. It checks the routing story
// (sessions on both shards, every transaction completed) rather than
// throughput.
func TestRunShardScalingSmoke(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	base := WallCfg{Clients: 4, Txns: 6}
	for _, n := range []int{1, 2} {
		cfg := base
		cfg.Shards, cfg.Conns = n, n
		r := runTPCC(t, part, c, cfg, TPCCMix{WriteEvery: 2, PaymentEvery: 3})
		if len(r.violations) > 0 {
			t.Fatalf("shards=%d: invariants violated: %v", n, r.violations)
		}
		if r.sum.txns != base.Clients*base.Txns {
			t.Errorf("shards=%d: %d of %d transactions completed", n, r.sum.txns, base.Clients*base.Txns)
		}
		if k := r.sum.kinds; k[kindNewOrder] == 0 || k[kindPayment] == 0 || k[kindRead] == 0 {
			t.Errorf("shards=%d: mix degenerated (no=%d pay=%d read=%d)", n, k[kindNewOrder], k[kindPayment], k[kindRead])
		}
		for s, got := range r.placed.shard {
			if got == 0 {
				t.Errorf("%d-shard point never routed a session to shard %d: %v", n, s, r.placed.shard)
			}
		}
	}
}

// TestRunShardTPCCOverTCP audits the shard databases a run hands back,
// rather than the run's own violation list: one database per shard,
// and the cross-shard invariants hold over them.
func TestRunShardTPCCOverTCP(t *testing.T) {
	c := DefaultTPCC()
	part, err := c.PyxisPartition(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallCfg{Clients: 4, Txns: 4, Shards: 2, Conns: 2}
	r := runTPCC(t, part, c, cfg, TPCCMix{WriteEvery: 2, PaymentEvery: 3})
	if violations := CheckShardInvariants(r.dbs, c); len(violations) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(violations, "\n"))
	}
	if len(r.dbs) != 2 {
		t.Fatalf("got %d shard databases, want 2", len(r.dbs))
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
	lo0, hi0 := c.WarehouseRange(0, 2)
	lo1, hi1 := c.WarehouseRange(1, 2)
	db0 := c.LoadRange(int(lo0), int(hi0))
	db1 := c.LoadRange(int(lo1), int(hi1))

	if violations := CheckShardInvariants([]*sqldb.DB{db0, db1}, c); len(violations) > 0 {
		t.Fatalf("fresh shards flagged: %v", violations)
	}

	// A w_ytd bump with no matching d_ytd anywhere — a lost/misbooked
	// Payment half.
	s := db1.NewSession()
	if _, err := s.Exec("UPDATE warehouse SET w_ytd = w_ytd + 100.0 WHERE w_id = ?", val.IntV(lo1)); err != nil {
		t.Fatal(err)
	}
	if violations := CheckShardInvariants([]*sqldb.DB{db0, db1}, c); len(violations) == 0 {
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
	violations := CheckShardInvariants([]*sqldb.DB{db2, db3}, c)
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

// TestWarehouseRangeBoundaries is the boundary table: for each
// (warehouses, shards) shape, every warehouse of a shard's range must
// have that shard as its home, and the ranges must tile [1, W] exactly
// — contiguous, disjoint, nothing dropped — with sizes that differ by
// at most one.
func TestWarehouseRangeBoundaries(t *testing.T) {
	shapes := []struct{ warehouses, shards int }{
		{1, 1}, {4, 1}, {4, 2}, {5, 2}, {4, 4}, {10, 3}, {7, 4}, {16, 5},
	}
	for _, sh := range shapes {
		c := TPCCConfig{Warehouses: sh.warehouses}
		next := int64(1)
		min, max := int64(1<<62), int64(0)
		for s := 0; s < sh.shards; s++ {
			lo, hi := c.WarehouseRange(s, sh.shards)
			if lo != next {
				t.Errorf("%d/%d: shard %d range starts at %d, want %d (gap or overlap)",
					sh.warehouses, sh.shards, s, lo, next)
			}
			if hi < lo {
				t.Errorf("%d/%d: shard %d has empty range [%d,%d] despite warehouses >= shards",
					sh.warehouses, sh.shards, s, lo, hi)
				continue
			}
			for w := lo; w <= hi; w++ {
				if got := c.HomeShard(w, sh.shards); got != s {
					t.Errorf("%d/%d: warehouse %d has home shard %d, want %d",
						sh.warehouses, sh.shards, w, got, s)
				}
			}
			size := hi - lo + 1
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
			next = hi + 1
		}
		if next != int64(sh.warehouses)+1 {
			t.Errorf("%d/%d: ranges cover [1,%d], want [1,%d]",
				sh.warehouses, sh.shards, next-1, sh.warehouses)
		}
		if max-min > 1 {
			t.Errorf("%d/%d: range sizes spread %d..%d, want balanced within 1",
				sh.warehouses, sh.shards, min, max)
		}
	}
}

// TestWarehouseRangeMoreShardsThanWarehouses: surplus shards get empty
// ranges (lo > hi) and are no warehouse's home.
func TestWarehouseRangeMoreShardsThanWarehouses(t *testing.T) {
	c := TPCCConfig{Warehouses: 3}
	for w := int64(1); w <= 3; w++ {
		if got := c.HomeShard(w, 5); got != int(w-1) {
			t.Errorf("warehouse %d has home shard %d, want %d", w, got, w-1)
		}
	}
	for s := 3; s < 5; s++ {
		if lo, hi := c.WarehouseRange(s, 5); lo <= hi {
			t.Errorf("surplus shard %d owns warehouses [%d,%d], want empty", s, lo, hi)
		}
	}
}
