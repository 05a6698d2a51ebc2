package rpc

import (
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
// buffer. The reply is the caller's own. A caller that is done with its
// last reply lends that memory to its next call with CallInto: the
// transport reads the reply into into's array when it fits (and into
// is no larger than 32 KiB, so a caller keeps at most that between
// calls) and into a new buffer otherwise, and writes to into only until
// the call returns, however the call ends. Call is CallInto with
// nothing lent, so two goroutines may still call one session at once,
// each getting its own reply.
type Transport interface {
	Call(req []byte) ([]byte, error)
	Close() error
}

// lender is a Transport that can read a reply into lent memory.
type lender interface {
	CallInto(req, into []byte) ([]byte, error)
}

// CallInto is t.CallInto(req, into) when t lends, and t.Call(req) for a
// transport that cannot, such as a wrapper without the method.
func CallInto(t Transport, req, into []byte) ([]byte, error) {
	if l, ok := t.(lender); ok {
		return l.CallInto(req, into)
	}
	return t.Call(req)
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
func (t *InProc) Call(req []byte) ([]byte, error) { return t.CallInto(req, nil) }

// CallInto is Call with the reply copied into into's array when it
// fits (see Transport).
func (t *InProc) CallInto(req, into []byte) ([]byte, error) {
	Released(into)
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
	return append(lent(into, len(resp)), resp...), nil
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
