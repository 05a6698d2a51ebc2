package runtime

import "testing"

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

// TestShardMapBoundaries pins the edge-key contract: the range answer
// applies to keys in [1, Warehouses] only; keys 0 and Warehouses+1
// take the hash fallback even when ranges are configured, and in pure
// hash mode (Warehouses == 0) every key hashes.
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
}
