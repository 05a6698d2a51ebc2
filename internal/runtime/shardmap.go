package runtime

// This file is the routing half of the shard-router layer: ShardMap
// decides which shard owns a partition key, ShardedClient applies that
// decision at session-open time and keeps the per-shard load state the
// app side needs once the DB tier is N independent servers instead of
// one.
//
// The base mapping is deliberately dumb — contiguous warehouse ranges
// for TPC-C-shaped keys, a hash for everything else — but it is no
// longer frozen: live rebalancing (migrate.go) publishes successor
// maps that carry per-warehouse ownership Overrides and a bumped
// Epoch, and ShardedClient routes every new decision through the
// latest published map. Sessions stay pinned to their home shard for
// the life of a transaction, but transactions are not confined to it:
// a transaction that must touch rows another shard owns (TPC-C's
// remote Payment / remote NewOrder lines) opens a branch session on
// that shard and commits both branches atomically through the
// client's 2PC Coordinator (twopc.go).

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pyxis/internal/rpc"
)

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
	// Epoch versions the map. Every published rebalance bumps it;
	// routers compare epochs at transaction boundaries to decide when
	// to re-home their cached sessions (see ShardedClient.Publish).
	Epoch uint64
	// Overrides reassigns individual warehouses away from the range
	// mapping — the migration result. Only keys inside [1, Warehouses]
	// consult it (an override on an out-of-range key is dead data, so
	// the hash fallback stays total and the per-shard ownership audit
	// stays a partition of [1, Warehouses]); override values outside
	// [0, NumShards()) are ignored as corrupt.
	Overrides map[int64]int
}

// NumShards returns the effective shard count (at least 1).
func (m ShardMap) NumShards() int {
	if m.Shards < 1 {
		return 1
	}
	return m.Shards
}

// Shard returns key's home shard, in [0, NumShards()). The range
// answer (including Overrides) applies to in-range keys only; keys
// outside [1, Warehouses] always take the hash fallback, pinned by
// TestShardMapBoundaries so a stray key 0 or Warehouses+1 can never
// silently alias a range-owned warehouse.
func (m ShardMap) Shard(key int64) int {
	n := int64(m.NumShards())
	if n == 1 {
		return 0
	}
	if w := int64(m.Warehouses); w > 0 && key >= 1 && key <= w {
		if o, ok := m.Overrides[key]; ok && o >= 0 && int64(o) < n {
			return o
		}
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

// OwnedWarehouses returns the sorted warehouses shard owns under the
// full mapping, Overrides included — the per-shard ownership set the
// invariant audits and the migrator's validity checks use.
func (m ShardMap) OwnedWarehouses(shard int) []int64 {
	var out []int64
	for w := int64(1); w <= int64(m.Warehouses); w++ {
		if m.Shard(w) == shard {
			out = append(out, w)
		}
	}
	return out
}

// WithMove returns the successor map: the same layout with warehouses
// [lo, hi] overridden to shard `to` and the epoch bumped. The receiver
// is not modified; Overrides are deep-copied.
func (m ShardMap) WithMove(lo, hi int64, to int) ShardMap {
	next := m
	next.Epoch = m.Epoch + 1
	next.Overrides = make(map[int64]int, len(m.Overrides)+int(hi-lo+1))
	for k, v := range m.Overrides {
		next.Overrides[k] = v
	}
	for w := lo; w <= hi; w++ {
		next.Overrides[w] = to
	}
	return next
}

// WarehouseRange returns the inclusive warehouse range shard owns
// under the base range mapping. It deliberately ignores Overrides —
// it describes the initial data layout migrations start from (the
// loader's contract), not current ownership; use OwnedWarehouses for
// that. A shard with no warehouses (more shards than warehouses)
// returns lo > hi.
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

// ParseShardSlot parses a "i/n" shard-slot spec (0-based index i of n
// shards), the form cmd/pyxis-dbserver's -shard flag takes.
func ParseShardSlot(spec string) (shard, shards int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard slot %q: want \"i/n\" (0-based shard i of n)", spec)
	}
	if shard, err = strconv.Atoi(strings.TrimSpace(i)); err != nil {
		return 0, 0, fmt.Errorf("shard slot %q: bad shard index: %w", spec, err)
	}
	if shards, err = strconv.Atoi(strings.TrimSpace(n)); err != nil {
		return 0, 0, fmt.Errorf("shard slot %q: bad shard count: %w", spec, err)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("shard slot %q: index must be in [0, %d)", spec, shards)
	}
	return shard, shards, nil
}

// ShardedClient is the app side's view of a sharded DB tier: it picks
// every session's home shard at open time (sessions stay pinned — the
// runtime keeps a session's transaction state on one server) and
// keeps one load EWMA per shard, so dynamic switching and
// admission-shed backoff react to the load of the shard actually
// serving a session rather than a blend of all N. Its Observe matches
// rpc.ShardedPool.SetOnLoad, wiring each shard's piggy-backed reports
// into that shard's switcher and nothing else's.
type ShardedClient struct {
	// Map is the map the client was constructed with — the epoch-0
	// view. Routing always goes through CurrentMap, which starts here
	// and advances on every Publish.
	Map ShardMap

	// TwoPC commits transactions that span shards: per-shard branches
	// run on ordinary sessions, then Commit(gid, branches...) drives
	// prepare/commit over each branch's mux connection. Each shard's
	// dbapi.Participant should resolve in-doubt transactions against
	// TwoPC.Outcome.
	TwoPC *Coordinator

	switchers []*Switcher

	// epochMu serializes Publish (epoch monotonicity); readers go
	// through the atomic pointer and never take it.
	epochMu sync.Mutex
	cur     atomic.Pointer[ShardMap]
}

// NewShardedClient builds a client router over m with one
// default-configured Switcher per shard (callers tune thresholds via
// Switcher(i)) and a default-deadline 2PC coordinator.
func NewShardedClient(m ShardMap) *ShardedClient {
	c := &ShardedClient{Map: m, TwoPC: NewCoordinator(0), switchers: make([]*Switcher, m.NumShards())}
	for i := range c.switchers {
		c.switchers[i] = NewSwitcher()
	}
	c.cur.Store(&m)
	return c
}

// CurrentMap returns the latest published shard map. Safe from any
// goroutine; the map value is immutable once published.
func (c *ShardedClient) CurrentMap() ShardMap {
	if p := c.cur.Load(); p != nil {
		return *p
	}
	return c.Map // zero-value client constructed without NewShardedClient
}

// MapEpoch returns the current map's epoch. Drivers compare it at
// transaction boundaries: a bump means cached per-shard sessions may
// be homed by a stale map and must be re-opened.
func (c *ShardedClient) MapEpoch() uint64 { return c.CurrentMap().Epoch }

// Publish installs a successor map. The epoch must strictly increase
// and the shard count must match the client's switcher set (a
// rebalance moves data between existing shards; it cannot grow the
// tier). The map value must not be mutated after publishing.
func (c *ShardedClient) Publish(m ShardMap) error {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	cur := c.CurrentMap()
	if m.Epoch <= cur.Epoch {
		return fmt.Errorf("runtime: publish epoch %d not newer than current %d", m.Epoch, cur.Epoch)
	}
	if m.NumShards() != len(c.switchers) {
		return fmt.Errorf("runtime: publish shard count %d != %d", m.NumShards(), len(c.switchers))
	}
	c.cur.Store(&m)
	return nil
}

// NumShards returns the number of shards routed over.
func (c *ShardedClient) NumShards() int { return len(c.switchers) }

// HomeShard returns the shard that owns key under the current map —
// the shard a session keyed by key must open against.
func (c *ShardedClient) HomeShard(key int64) int { return c.CurrentMap().Shard(key) }

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
