package runtime

// This file is the routing half of the shard-router layer: ShardMap
// decides which shard owns a partition key, and the app side opens a
// session on its key's shard.
//
// The mapping is deliberately dumb and fixed for the life of a
// deployment: contiguous warehouse ranges for TPC-C-shaped keys, a hash
// for everything else. A session stays on its home shard, and every
// transaction it runs is confined to that shard and ends in one plain
// commit there: nothing commits across shards.

// ShardMap maps partition keys onto N shards. The zero value is the
// unsharded deployment (everything on shard 0).
type ShardMap struct {
	// Shards is the shard count (values < 1 behave as 1).
	Shards int
	// Warehouses, when > 0, enables warehouse-range mapping: keys in
	// [1, Warehouses] are split into contiguous ranges, one per shard,
	// with the remainder spread over the first shards. Keys outside
	// the range (and all keys when Warehouses is 0) fall back to a
	// hash — deterministic, uniform, but with no range locality.
	Warehouses int
}

// NumShards returns the effective shard count (at least 1).
func (m ShardMap) NumShards() int {
	if m.Shards < 1 {
		return 1
	}
	return m.Shards
}

// Shard returns key's home shard, in [0, NumShards()). The range
// answer applies to in-range keys only; keys outside [1, Warehouses]
// always take the hash fallback, pinned by TestShardMapBoundaries so a
// stray key 0 or Warehouses+1 can never silently alias a range-owned
// warehouse.
func (m ShardMap) Shard(key int64) int {
	n := int64(m.NumShards())
	if n == 1 {
		return 0
	}
	if w := int64(m.Warehouses); w > 0 && key >= 1 && key <= w {
		// Contiguous ranges: the first w%n shards own one extra
		// warehouse, so [1,w] is covered with ranges differing by at
		// most one.
		base, extra := w/n, w%n
		idx := key - 1
		if wide := extra * (base + 1); idx < wide {
			return int(idx / (base + 1))
		} else {
			return int(extra + (idx-wide)/base)
		}
	}
	return int(splitmix64(uint64(key)) % uint64(n))
}

// WarehouseRange returns the inclusive warehouse range shard owns: the
// keys in [1, Warehouses] that Shard maps to it, and the rows the
// loader puts there. A shard with no warehouses (more shards than
// warehouses) returns lo > hi.
func (m ShardMap) WarehouseRange(shard int) (lo, hi int64) {
	n := int64(m.NumShards())
	w := int64(m.Warehouses)
	s := int64(shard)
	base, extra := w/n, w%n
	size := base
	off := s * base
	if s < extra {
		size++
		off += s
	} else {
		off += extra
	}
	lo = off + 1
	return lo, lo + size - 1
}

// splitmix64 is the hash-fallback mixer (public-domain SplitMix64
// finalizer): full-avalanche, so adjacent keys spread uniformly.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
