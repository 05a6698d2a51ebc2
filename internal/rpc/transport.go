package rpc

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"
)

// Transport is a synchronous request/response channel: exactly one
// response per request, in order. Both the database wire protocol and
// Pyxis control transfers use this shape (the paper's runtime likewise
// blocks the caller until the callee returns control).
//
// Buffer ownership, caller's side: Call does not retain req once it
// has returned, so the caller may encode its next request into the same
// buffer; the reply Call returns is the caller's own — a transport
// never reuses it — so two goroutines may call one session at once.
type Transport interface {
	Call(req []byte) ([]byte, error)
	Close() error
}

// Handler serves one request, returning the response payload.
//
// Buffer ownership, server's side: req is valid only until the handler
// returns — the transport recycles it — so a handler copies out what
// it keeps (decoding into values and strings does). The slice a
// handler returns belongs to the transport until it is written and is
// the handler's again at its next call: one session's calls are
// sequential, so a handler may encode every reply into one buffer it
// keeps. Returning req itself, or part of it, as the reply is allowed:
// the transport releases the request only after the reply is written.
//
// The rule is tested, not trusted: under ScribbleReleased every
// released buffer is overwritten the moment it is given up.
type Handler func(req []byte) ([]byte, error)

// Stats counts traffic through a transport.
type Stats struct {
	Calls     int64
	BytesSent int64
	BytesRecv int64
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

// InProc invokes a handler directly, optionally sleeping to emulate a
// network round trip. It is safe for concurrent use.
type InProc struct {
	H       Handler
	Latency time.Duration // full round-trip time added per call
	stats   Stats
	closed  atomic.Bool
}

// NewInProc returns an in-process transport over h with the given
// round-trip latency (0 for none).
func NewInProc(h Handler, rtt time.Duration) *InProc {
	return &InProc{H: h, Latency: rtt}
}

// Call implements Transport.
func (t *InProc) Call(req []byte) ([]byte, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("rpc: transport closed")
	}
	if t.Latency > 0 {
		time.Sleep(t.Latency)
	}
	atomic.AddInt64(&t.stats.Calls, 1)
	atomic.AddInt64(&t.stats.BytesSent, int64(len(req)))
	resp, err := t.H(req)
	atomic.AddInt64(&t.stats.BytesRecv, int64(len(resp)))
	if err != nil {
		return nil, err
	}
	// The handler may reuse resp at its next call; the caller's reply is
	// its own, as over a wire.
	return bytes.Clone(resp), nil
}

// Close implements Transport.
func (t *InProc) Close() error {
	t.closed.Store(true)
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (t *InProc) Stats() Stats {
	return Stats{
		Calls:     atomic.LoadInt64(&t.stats.Calls),
		BytesSent: atomic.LoadInt64(&t.stats.BytesSent),
		BytesRecv: atomic.LoadInt64(&t.stats.BytesRecv),
	}
}
