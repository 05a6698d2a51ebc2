package rpc

// This file is the client's connection pool: a Pool holds a fixed set
// of mux connections to one server and opens sessions on them.
//
// One multiplexed TCP connection is a single head-of-line: every frame
// of every session funnels through one read loop and one write mutex
// on each end. Measured on a 2-CPU host (a read-mostly ledger, one
// deposit in eight, ten alternating pairs of sub-second runs), 4
// connections against 1 read a median 0.95× at 8 concurrent sessions
// and 1.18× at 32, where the 4-connection arm won every pair: the one
// wire starts to cap throughput somewhere between those loads. The pool
// therefore places each NEW session on the least-loaded connection (by
// its calls in flight) and pins it there for life, which preserves
// every per-session invariant of the single-connection protocol:
// per-session ordering (one worker per session server-side) and
// session-scoped state. Session IDs come from the chosen connection's
// own counter: every server serves each connection with its own session
// handlers, so an ID only has to be unique on its connection.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
)

// ErrPoolPoisoned reports that every connection of a pool has failed
// or spent its session IDs: there is nowhere left to place a session.
// Callers should treat it like a connection loss (rebuild the pool),
// not retry the session open; errors.Is matches it through wrapping.
var ErrPoolPoisoned = errors.New("rpc: all pooled connections poisoned")

// Pool is a fixed set of mux connections to one server. It is safe for
// concurrent use. Sessions stay pinned to the connection they were
// placed on; if a connection dies, only its pinned sessions fail and
// new sessions are placed on the survivors.
type Pool struct {
	conns []*MuxClient
	rr    atomic.Uint32 // rotates placement tie-breaks across conns
}

// NewPool builds a pool of conns connections, dialing connection i
// with dial(i) (so tests can hand every slot a distinct peer). On any
// dial error the connections already opened are closed.
func NewPool(conns int, dial func(i int) (io.ReadWriteCloser, error)) (*Pool, error) {
	if conns < 1 {
		return nil, fmt.Errorf("rpc: pool needs at least 1 connection, got %d", conns)
	}
	p := &Pool{conns: make([]*MuxClient, 0, conns)}
	for i := range conns {
		conn, err := dial(i)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("rpc: dial conn %d: %w", i, err)
		}
		p.conns = append(p.conns, NewMuxClient(conn))
	}
	return p, nil
}

// DialPool connects conns TCP connections to the server at addr.
func DialPool(addr string, conns int) (*Pool, error) {
	return NewPool(conns, func(int) (io.ReadWriteCloser, error) {
		return net.Dial("tcp", addr)
	})
}

// Conn returns the pool's i-th connection (for inspection; sessions
// should be opened through Session so placement applies).
func (p *Pool) Conn(i int) *MuxClient { return p.conns[i] }

// place picks the healthy connection with the fewest calls in flight;
// ties resolve round-robin so an idle pool still stripes sessions
// instead of piling them on connection 0. Dead and spent connections
// are skipped with two atomic loads each (no per-scan mutex); with
// every connection dead or spent it returns -1 and the caller surfaces
// the typed ErrPoolPoisoned instead of silently pinning new sessions
// to a connection that cannot serve them.
func (p *Pool) place() int {
	n := len(p.conns)
	// Reduce in uint32 before converting: a wrapped counter cast
	// through int would go negative on 32-bit platforms.
	start := int(p.rr.Add(1) % uint32(n))
	best, bestScore := -1, int64(0)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		c := p.conns[i]
		if c.poisoned.Load() || c.spent() {
			continue
		}
		if score := c.Outstanding(); best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Session opens a new logical session on the least-loaded connection,
// pinned there for its lifetime. A dead pool (every connection
// poisoned or spent) fails with ErrPoolPoisoned.
func (p *Pool) Session() (*MuxSession, error) {
	i := p.place()
	if i < 0 {
		return nil, fmt.Errorf("rpc: none of the pool's %d connections is live: %w", len(p.conns), ErrPoolPoisoned)
	}
	return p.conns[i].Session(), nil
}

// Stats returns aggregate traffic counters across every connection.
func (p *Pool) Stats() Stats {
	var st Stats
	for _, c := range p.conns {
		cs := c.Stats()
		st.Calls += cs.Calls
		st.BytesSent += cs.BytesSent
		st.BytesRecv += cs.BytesRecv
	}
	return st
}

// Close tears down every connection; all sessions fail afterwards. The
// first error wins.
func (p *Pool) Close() error {
	var err error
	for _, c := range p.conns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
