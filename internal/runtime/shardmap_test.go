package runtime

import (
	"testing"

	"pyxis/internal/rpc"
)

// TestShardMapWarehouseBoundaries is the boundary table: for each
// (warehouses, shards) shape, every shard's first and last warehouse
// must map back to that shard, and the ranges must tile [1, W] exactly
// — contiguous, disjoint, nothing dropped.
func TestShardMapWarehouseBoundaries(t *testing.T) {
	shapes := []struct{ warehouses, shards int }{
		{1, 1}, {4, 1}, {4, 2}, {5, 2}, {4, 4}, {10, 3}, {7, 4}, {16, 5},
	}
	for _, sh := range shapes {
		m := ShardMap{Shards: sh.shards, Warehouses: sh.warehouses}
		next := int64(1)
		for s := 0; s < sh.shards; s++ {
			lo, hi := m.WarehouseRange(s)
			if lo != next {
				t.Errorf("%d/%d: shard %d range starts at %d, want %d (gap or overlap)",
					sh.warehouses, sh.shards, s, lo, next)
			}
			if hi < lo {
				t.Errorf("%d/%d: shard %d has empty range [%d,%d] despite warehouses >= shards",
					sh.warehouses, sh.shards, s, lo, hi)
				continue
			}
			// First and last warehouse of the range route home; so does
			// everything between (ranges are small enough to sweep).
			for w := lo; w <= hi; w++ {
				if got := m.Shard(w); got != s {
					t.Errorf("%d/%d: warehouse %d maps to shard %d, want %d",
						sh.warehouses, sh.shards, w, got, s)
				}
			}
			next = hi + 1
		}
		if next != int64(sh.warehouses)+1 {
			t.Errorf("%d/%d: ranges cover [1,%d], want [1,%d]",
				sh.warehouses, sh.shards, next-1, sh.warehouses)
		}
		// Range sizes differ by at most one warehouse.
		min, max := int64(1<<62), int64(0)
		for s := 0; s < sh.shards; s++ {
			lo, hi := m.WarehouseRange(s)
			size := hi - lo + 1
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
		}
		if max-min > 1 {
			t.Errorf("%d/%d: range sizes spread %d..%d, want balanced within 1",
				sh.warehouses, sh.shards, min, max)
		}
	}
}

// TestShardMapMoreShardsThanWarehouses: surplus shards get empty
// ranges (lo > hi) and never own a warehouse key.
func TestShardMapMoreShardsThanWarehouses(t *testing.T) {
	m := ShardMap{Shards: 5, Warehouses: 3}
	for w := int64(1); w <= 3; w++ {
		if got := m.Shard(w); got != int(w-1) {
			t.Errorf("warehouse %d maps to shard %d, want %d", w, got, w-1)
		}
	}
	for s := 3; s < 5; s++ {
		if lo, hi := m.WarehouseRange(s); lo <= hi {
			t.Errorf("surplus shard %d owns warehouses [%d,%d], want empty", s, lo, hi)
		}
	}
}

// TestShardMapHashFallback: keys outside the warehouse range (and all
// keys when Warehouses is 0) hash deterministically into [0, shards)
// and actually spread.
func TestShardMapHashFallback(t *testing.T) {
	for _, m := range []ShardMap{{Shards: 4}, {Shards: 4, Warehouses: 8}} {
		hit := make([]int, 4)
		for _, key := range []int64{0, -1, -500, 9, 10_000, 1 << 40} {
			s := m.Shard(key)
			if s < 0 || s >= 4 {
				t.Fatalf("key %d hashed to shard %d, out of [0,4)", key, s)
			}
			if again := m.Shard(key); again != s {
				t.Fatalf("key %d hashed to %d then %d (non-deterministic)", key, s, again)
			}
		}
		for key := int64(1000); key < 1200; key++ {
			hit[m.Shard(key)]++
		}
		for s, n := range hit {
			if n == 0 {
				t.Errorf("map %+v: hash fallback never picked shard %d: %v", m, s, hit)
			}
		}
	}
	// Unsharded and zero-value maps route everything to shard 0.
	for _, m := range []ShardMap{{}, {Shards: 1, Warehouses: 4}} {
		for _, key := range []int64{-3, 0, 1, 4, 99} {
			if got := m.Shard(key); got != 0 {
				t.Errorf("map %+v key %d -> shard %d, want 0", m, key, got)
			}
		}
	}
}

// TestParseShardSlot covers the -shard flag format.
func TestParseShardSlot(t *testing.T) {
	if shard, shards, err := ParseShardSlot("2/4"); err != nil || shard != 2 || shards != 4 {
		t.Errorf("ParseShardSlot(2/4) = %d, %d, %v", shard, shards, err)
	}
	if shard, shards, err := ParseShardSlot(" 0 / 1 "); err != nil || shard != 0 || shards != 1 {
		t.Errorf("ParseShardSlot(' 0 / 1 ') = %d, %d, %v", shard, shards, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/4", "1/b", "1/0", "1/-2"} {
		if _, _, err := ParseShardSlot(bad); err == nil {
			t.Errorf("ParseShardSlot(%q) accepted", bad)
		}
	}
}

// TestShardedClientPerShardEWMA pins the per-shard isolation of the
// load state: saturating shard 0's reports routes shard 0's sessions
// low while shard 1 — and only shard 1 — stays high.
func TestShardedClientPerShardEWMA(t *testing.T) {
	sc := NewShardedClient(ShardMap{Shards: 2, Warehouses: 4})
	if sc.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", sc.NumShards())
	}

	for k := 0; k < 30; k++ {
		sc.Observe(0, rpc.LoadReport{Load: 95})
		sc.Observe(1, rpc.LoadReport{Load: 5})
	}
	if !sc.Switcher(0).UseLowBudget() {
		t.Errorf("shard 0 saturated (EWMA %.1f) but not routed low", sc.Load(0))
	}
	if sc.Switcher(1).UseLowBudget() {
		t.Errorf("shard 1 idle (EWMA %.1f) but routed low — shard 0's load leaked", sc.Load(1))
	}
	if lo, hi := sc.Load(1), sc.Load(0); lo >= hi {
		t.Errorf("per-shard EWMAs blended: shard0=%.1f shard1=%.1f", hi, lo)
	}

	// Out-of-range shard indexes (a stale report after a resize) are
	// dropped, not a panic.
	sc.Observe(-1, rpc.LoadReport{Load: 50})
	sc.Observe(2, rpc.LoadReport{Load: 50})

	// HomeShard follows the map's warehouse ranges.
	if sc.HomeShard(1) != 0 || sc.HomeShard(4) != 1 {
		t.Errorf("HomeShard(1)=%d HomeShard(4)=%d, want 0 and 1", sc.HomeShard(1), sc.HomeShard(4))
	}
}

// TestShardMapBoundaries pins the edge-key contract: the range answer
// (overrides included) applies to keys in [1, Warehouses] only; keys 0
// and Warehouses+1 take the hash fallback even when ranges are
// configured, and in pure hash mode (Warehouses == 0) every key
// hashes. An override planted on an out-of-range key must be dead
// data.
func TestShardMapBoundaries(t *testing.T) {
	const W, N = 8, 4
	hash := func(key int64) int { return int(splitmix64(uint64(key)) % N) }
	rangeMode := ShardMap{Shards: N, Warehouses: W}
	hashMode := ShardMap{Shards: N}
	cases := []struct {
		key           int64
		wantRange     int // expected in range mode
		wantRangeMode string
	}{
		{0, hash(0), "hash"},         // below the range: fallback
		{1, 0, "range"},              // first warehouse: range answer
		{W, N - 1, "range"},          // last warehouse: range answer
		{W + 1, hash(W + 1), "hash"}, // above the range: fallback
	}
	for _, c := range cases {
		if got := rangeMode.Shard(c.key); got != c.wantRange {
			t.Errorf("range mode key %d -> shard %d, want %d (%s)", c.key, got, c.wantRange, c.wantRangeMode)
		}
		if got := hashMode.Shard(c.key); got != hash(c.key) {
			t.Errorf("hash mode key %d -> shard %d, want %d", c.key, got, hash(c.key))
		}
	}
	// Overrides re-home in-range keys only; out-of-range and corrupt
	// entries are ignored.
	over := ShardMap{Shards: N, Warehouses: W, Overrides: map[int64]int{
		1:     3,  // valid: warehouse 1 moves to shard 3
		0:     2,  // out of range: dead data
		W + 1: 2,  // out of range: dead data
		2:     99, // corrupt target: ignored
	}}
	if got := over.Shard(1); got != 3 {
		t.Errorf("override key 1 -> shard %d, want 3", got)
	}
	if got := over.Shard(0); got != hash(0) {
		t.Errorf("override on key 0 must stay dead: got shard %d, want hash %d", got, hash(0))
	}
	if got := over.Shard(W + 1); got != hash(W+1) {
		t.Errorf("override on key W+1 must stay dead: got shard %d, want hash %d", got, hash(W+1))
	}
	if got := over.Shard(2); got != rangeMode.Shard(2) {
		t.Errorf("corrupt override target must fall back to range: got %d", got)
	}
}

// TestShardMapWithMove covers the successor-map constructor and the
// override-aware ownership sets.
func TestShardMapWithMove(t *testing.T) {
	m := ShardMap{Shards: 2, Warehouses: 6}
	next := m.WithMove(1, 2, 1)
	if next.Epoch != 1 || m.Epoch != 0 {
		t.Fatalf("epochs: next=%d base=%d, want 1 and 0", next.Epoch, m.Epoch)
	}
	if m.Overrides != nil {
		t.Fatal("WithMove mutated the receiver's overrides")
	}
	want0, want1 := []int64{3}, []int64{1, 2, 4, 5, 6}
	got0, got1 := next.OwnedWarehouses(0), next.OwnedWarehouses(1)
	eq := func(a, b []int64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eq(got0, want0) || !eq(got1, want1) {
		t.Fatalf("ownership after move: shard0=%v shard1=%v, want %v / %v", got0, got1, want0, want1)
	}
	// Every warehouse still has exactly one owner.
	owned := 0
	for s := 0; s < 2; s++ {
		owned += len(next.OwnedWarehouses(s))
	}
	if owned != 6 {
		t.Fatalf("ownership is not a partition: %d owned of 6", owned)
	}
	// Chained moves stack overrides and keep bumping the epoch.
	third := next.WithMove(3, 3, 1)
	if third.Epoch != 2 || third.Shard(3) != 1 || third.Shard(1) != 1 {
		t.Fatalf("chained move broken: epoch=%d shard(3)=%d shard(1)=%d", third.Epoch, third.Shard(3), third.Shard(1))
	}
}

// TestShardedClientPublish covers versioned routing: epoch
// monotonicity and re-routing through the published map.
func TestShardedClientPublish(t *testing.T) {
	base := ShardMap{Shards: 2, Warehouses: 4}
	sc := NewShardedClient(base)
	if sc.MapEpoch() != 0 {
		t.Fatalf("fresh client epoch %d, want 0", sc.MapEpoch())
	}
	if home := sc.HomeShard(1); home != 0 {
		t.Fatalf("warehouse 1 home %d, want 0", home)
	}
	next := base.WithMove(1, 2, 1)
	if err := sc.Publish(next); err != nil {
		t.Fatal(err)
	}
	if sc.MapEpoch() != 1 || sc.HomeShard(1) != 1 {
		t.Fatalf("after publish: epoch=%d home(1)=%d, want 1/1", sc.MapEpoch(), sc.HomeShard(1))
	}
	// Stale and same-epoch publishes are refused; shard-count changes too.
	if err := sc.Publish(next); err == nil {
		t.Fatal("same-epoch publish accepted")
	}
	if err := sc.Publish(ShardMap{Shards: 3, Warehouses: 4, Epoch: 9}); err == nil {
		t.Fatal("shard-count change accepted")
	}
	if sc.MapEpoch() != 1 {
		t.Fatalf("failed publishes moved the epoch to %d", sc.MapEpoch())
	}
}
