package rpc

// This file is the client's connection pool: a ShardedPool holds
// connsPerShard mux connections to each database shard — each shard an
// INDEPENDENT pyxis-dbserver process owning a disjoint slice of the
// data — and opens sessions keyed by shard index. Nothing is shared
// between shards. The pool
// deliberately has no opinion about which shard a key lives on —
// key→shard mapping is the runtime's ShardMap; this layer only owns
// "given a shard, give me a session on one of its connections".
//
// One multiplexed TCP connection is a single head-of-line: every frame
// of every session funnels through one read loop and one write mutex
// on each end, so past a handful of concurrent sessions the wire — not
// the engine — caps throughput. The pool therefore places each NEW
// session on the shard's least-loaded connection (by its calls in
// flight) and pins it there for life, which preserves every
// per-session invariant of the single-connection protocol: per-session
// ordering (one worker per session server-side) and session-scoped
// state. Session IDs come from the chosen connection's own counter:
// every server serves each connection with its own session handlers,
// so an ID only has to be unique on its connection.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
)

// ErrPoolPoisoned reports that every connection to a shard has failed
// or spent its session IDs: there is nowhere left to place a session.
// Callers should treat it like a connection loss (rebuild the pool),
// not retry the session open; errors.Is matches it through wrapping.
var ErrPoolPoisoned = errors.New("rpc: all pooled connections poisoned")

// ShardedPool is a fixed set of mux connections per shard. It is safe
// for concurrent use. Sessions are opened on an explicit shard (the
// caller routes keys to shards via runtime.ShardMap) and stay pinned
// to the connection they were placed on; if a connection dies, only
// its pinned sessions fail and new sessions are placed on the shard's
// survivors.
type ShardedPool struct {
	conns [][]*MuxClient  // [shard][conn]
	rr    []atomic.Uint32 // per shard: rotates placement tie-breaks across conns
}

// NewShardedPool builds a pool of connsPerShard connections to each of
// shards shards, dialing connection conn of shard shard with
// dial(shard, conn) (so tests can hand every slot a distinct peer). On
// any dial error the connections already opened are closed.
func NewShardedPool(shards, connsPerShard int, dial func(shard, conn int) (io.ReadWriteCloser, error)) (*ShardedPool, error) {
	if shards < 1 {
		return nil, fmt.Errorf("rpc: sharded pool needs at least 1 shard, got %d", shards)
	}
	if connsPerShard < 1 {
		return nil, fmt.Errorf("rpc: sharded pool needs at least 1 connection per shard, got %d", connsPerShard)
	}
	s := &ShardedPool{
		conns: make([][]*MuxClient, shards),
		rr:    make([]atomic.Uint32, shards),
	}
	for shard := range s.conns {
		s.conns[shard] = make([]*MuxClient, 0, connsPerShard)
		for i := range connsPerShard {
			conn, err := dial(shard, i)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("rpc: shard %d: dial conn %d: %w", shard, i, err)
			}
			s.conns[shard] = append(s.conns[shard], NewMuxClient(conn))
		}
	}
	return s, nil
}

// DialShardedPool connects connsPerShard TCP connections to each
// shard server address in addrs (shard i is addrs[i]).
func DialShardedPool(addrs []string, connsPerShard int) (*ShardedPool, error) {
	return NewShardedPool(len(addrs), connsPerShard, func(shard, _ int) (io.ReadWriteCloser, error) {
		return net.Dial("tcp", addrs[shard])
	})
}

// NumShards returns the number of shards.
func (s *ShardedPool) NumShards() int { return len(s.conns) }

// ConnsPerShard returns the number of connections to each shard.
func (s *ShardedPool) ConnsPerShard() int { return len(s.conns[0]) }

// Conn returns shard's i-th connection (for inspection; sessions
// should be opened through Session so placement applies).
func (s *ShardedPool) Conn(shard, i int) *MuxClient { return s.conns[shard][i] }

// place picks shard's healthy connection with the fewest calls in
// flight; ties resolve round-robin so an idle shard still stripes
// sessions instead of piling them on connection 0. Dead and spent
// connections are skipped with two atomic loads each (no per-scan
// mutex); with every connection dead or spent it returns -1 and the
// caller surfaces the typed ErrPoolPoisoned instead of silently
// pinning new sessions to a connection that cannot serve them.
func (s *ShardedPool) place(shard int) int {
	conns := s.conns[shard]
	n := len(conns)
	// Reduce in uint32 before converting: a wrapped counter cast
	// through int would go negative on 32-bit platforms.
	start := int(s.rr[shard].Add(1) % uint32(n))
	best, bestScore := -1, int64(0)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		c := conns[i]
		if c.poisoned.Load() || c.spent() {
			continue
		}
		if score := c.Outstanding(); best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Session opens a new logical session on shard's least-loaded
// connection. The session is pinned to that shard (and connection)
// for its lifetime. A dead shard (every connection poisoned or spent)
// fails with ErrPoolPoisoned — its sibling shards keep serving.
func (s *ShardedPool) Session(shard int) (*MuxSession, error) {
	if shard < 0 || shard >= len(s.conns) {
		return nil, fmt.Errorf("rpc: shard %d out of range [0, %d)", shard, len(s.conns))
	}
	i := s.place(shard)
	if i < 0 {
		return nil, fmt.Errorf("rpc: shard %d: none of its %d connections is live: %w",
			shard, len(s.conns[shard]), ErrPoolPoisoned)
	}
	return s.conns[shard][i].Session(), nil
}

// Stats returns aggregate traffic counters across every connection.
func (s *ShardedPool) Stats() Stats {
	var st Stats
	for _, conns := range s.conns {
		for _, c := range conns {
			cs := c.Stats()
			st.Calls += cs.Calls
			st.BytesSent += cs.BytesSent
			st.BytesRecv += cs.BytesRecv
		}
	}
	return st
}

// Close tears down every connection; all sessions fail afterwards. The
// first error wins.
func (s *ShardedPool) Close() error {
	var err error
	for _, conns := range s.conns {
		for _, c := range conns {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
