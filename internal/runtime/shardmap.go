package runtime

// This file is the routing half of the shard-router layer: ShardMap
// decides which shard owns a partition key, ShardedClient applies that
// decision at session-open time and keeps the per-shard load state the
// app side needs once the DB tier is N independent servers instead of
// one.
//
// The mapping is deliberately dumb and fixed for the life of a
// deployment: contiguous warehouse ranges for TPC-C-shaped keys, a hash
// for everything else. A session stays on its home shard, and every
// transaction it runs is confined to that shard and ends in one plain
// commit there: nothing commits across shards.

import "pyxis/internal/rpc"

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

// ShardedClient is the app side's view of a sharded DB tier: it picks
// every session's home shard at open time (sessions stay pinned — the
// runtime keeps a session's transactions on one server, and none spans
// two) and keeps one load EWMA per shard, so dynamic switching and
// admission-shed backoff react to the load of the shard actually
// serving a session rather than a blend of all N. Its Observe matches
// rpc.ShardedPool.SetOnLoad, wiring each shard's piggy-backed reports
// into that shard's switcher and nothing else's.
type ShardedClient struct {
	// Map decides every session's home shard.
	Map ShardMap

	switchers []*Switcher
}

// NewShardedClient builds a client router over m with one
// default-configured Switcher per shard (callers tune thresholds via
// Switcher(i)).
func NewShardedClient(m ShardMap) *ShardedClient {
	c := &ShardedClient{Map: m, switchers: make([]*Switcher, m.NumShards())}
	for i := range c.switchers {
		c.switchers[i] = NewSwitcher()
	}
	return c
}

// NumShards returns the number of shards routed over.
func (c *ShardedClient) NumShards() int { return len(c.switchers) }

// HomeShard returns the shard that owns key — the shard a session
// keyed by key must open against.
func (c *ShardedClient) HomeShard(key int64) int { return c.Map.Shard(key) }

// Switcher returns shard's switcher — the per-shard EWMA a session
// pinned to that shard routes its dynamic high/low choice by.
func (c *ShardedClient) Switcher(shard int) *Switcher { return c.switchers[shard] }

// Observe folds one load report into the EWMA of the shard it arrived
// from. It matches rpc.ShardedPool.SetOnLoad.
func (c *ShardedClient) Observe(shard int, rep rpc.LoadReport) {
	if shard >= 0 && shard < len(c.switchers) {
		c.switchers[shard].Observe(rep.Load)
	}
}

// Load returns shard's current load EWMA.
func (c *ShardedClient) Load(shard int) float64 { return c.switchers[shard].Load() }
