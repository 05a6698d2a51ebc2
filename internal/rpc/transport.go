package rpc

import (
	"bytes"
	"fmt"
	"net"
	"sync"
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

// ---------------------------------------------------------------------------
// TCP transport (length-prefixed frames)
// ---------------------------------------------------------------------------

// TCPClient is a Transport over one TCP connection. Calls are
// serialized by a mutex (the protocol is strictly request/response).
type TCPClient struct {
	mu    sync.Mutex
	fr    *framer
	stats Stats
}

// Dial connects a TCPClient to addr.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPClient{fr: newFramer(conn)}, nil
}

// Call implements Transport.
func (c *TCPClient) Call(req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fr.writePlain(0, false, req); err != nil {
		return nil, err
	}
	n, err := c.fr.readLen()
	if err != nil {
		return nil, err
	}
	resp, err := c.fr.readBody(n, nil)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&c.stats.Calls, 1)
	atomic.AddInt64(&c.stats.BytesSent, int64(len(req))+4)
	atomic.AddInt64(&c.stats.BytesRecv, int64(len(resp))+4)
	if len(resp) > 0 && resp[0] == frameError {
		return nil, fmt.Errorf("rpc: remote error: %s", string(resp[1:]))
	}
	if len(resp) > 0 && resp[0] == frameOK {
		return resp[1:], nil
	}
	return nil, fmt.Errorf("rpc: malformed response")
}

// Close implements Transport.
func (c *TCPClient) Close() error { return c.fr.conn.Close() }

// Stats returns a snapshot of the traffic counters.
func (c *TCPClient) Stats() Stats {
	return Stats{
		Calls:     atomic.LoadInt64(&c.stats.Calls),
		BytesSent: atomic.LoadInt64(&c.stats.BytesSent),
		BytesRecv: atomic.LoadInt64(&c.stats.BytesRecv),
	}
}

const (
	frameOK    byte = 0
	frameError byte = 1
)

// Server accepts TCP connections and serves each with a
// per-connection handler (so stateful protocols get isolated state).
type Server struct {
	lis     net.Listener
	factory func() Handler
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
}

// NewServer listens on addr; factory is invoked once per accepted
// connection to create that connection's handler.
func NewServer(addr string, factory func() Handler) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{lis: lis, factory: factory}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		h := s.factory()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			serveConn(conn, h)
		}()
	}
}

func serveConn(conn net.Conn, h Handler) {
	fr := newFramer(conn)
	var req []byte // reused: the handler's request is valid only until it returns
	for {
		n, err := fr.readLen()
		if err != nil {
			return
		}
		if req, err = fr.readBody(n, req); err != nil {
			return
		}
		resp, herr := h(req)
		if herr != nil {
			err = fr.writePlain(frameError, true, []byte(herr.Error()))
		} else {
			err = fr.writePlain(frameOK, true, resp)
		}
		Released(req)
		Released(resp)
		if err != nil {
			return
		}
	}
}

// Close stops accepting and waits for in-flight connections to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}
