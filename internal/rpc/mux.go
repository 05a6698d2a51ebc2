package rpc

// This file is the transport over connections: many logical sessions
// share one connection, each session carrying concurrent
// request/response exchanges. A MuxSession implements Transport, so
// everything built on Transport (dbapi.Client, the runtime's
// control-transfer protocol) runs over a connection exactly as it runs
// over InProc; a deployment with one client is a mux with one session.
//
// Mux wire format: every frame is a head (FrameHead, frame.go) and the
// body:
//
//	[len uvarint][kind u8][sid uvarint][rid uvarint][body...]
//
// len counts everything after itself. sid identifies the session
// (minted once by the client, scoped to the connection), rid the
// request within the session; both are 32-bit, and a session's first
// 127 of each take one byte. A head is 4 bytes for a small body on a
// young session. Kinds:
//
//	muxCall      client -> server   body = request payload (empty: open the session)
//	muxReplyOK   server -> client   body = response payload
//	muxReplyErr  server -> client   body = error text
//	muxCloseSess client -> server   session teardown (no reply)
//	muxReplyShed server -> client   body = shed reason (admission refused, queue overflow)
//
// A client sends calls and closes, nothing else. Transaction ops are
// dbapi operations riding muxCall on the session like every statement,
// so they stay ordered with its calls and the mux knows nothing of
// transactions.
//
// A reply of any other kind fails its call as malformed.
//
// Frames are read and written by a framer (frame.go): one Write per
// frame, one buffered read, nothing held back.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

const (
	muxCall byte = iota
	muxReplyOK
	muxReplyErr
	muxCloseSess
	// muxReplyShed rejects a call the server refused: a session its
	// admission policy did not open, or a call beyond the session's queue
	// bound. It is distinct from muxReplyErr so clients can surface the
	// typed ErrOverloaded sentinel: overload is retryable back-off
	// territory, not an application failure.
	muxReplyShed
)

// ErrOverloaded reports that the server shed a call: its admission
// policy refused to open the session, or the session's queue was full.
// Nothing was run, so callers may back off and retry; errors.Is matches
// it through wrapping.
var ErrOverloaded = errors.New("rpc: server overloaded")

// ErrCallDeadline reports that a CallWithin did not complete within its
// deadline.
var ErrCallDeadline = errors.New("rpc: call deadline exceeded")

// ErrSessionIDsSpent reports a call on a session its connection could
// not give an ID: the connection has minted all 2^32-1 of its session
// IDs and opens nothing more. A pool skips such a connection; a caller
// holding it directly dials a new one.
var ErrSessionIDsSpent = errors.New("rpc: connection's session IDs spent")

// DefaultCallDeadline bounds a CallWithin that names no timeout, as
// dbapi's dial-time Program fetch does.
const DefaultCallDeadline = 5 * time.Second

// muxRetiredCap bounds the server's retired-session tombstone FIFO:
// it remembers the last muxRetiredCap closed session IDs per
// connection, so a call racing its session's close frame fails instead
// of resurrecting the session.
const muxRetiredCap = 1024

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

// MuxClient multiplexes many sessions over one connection. Sessions
// are created with Session(); each is an independent Transport whose
// calls may be issued concurrently with calls on other sessions (and
// even with other calls on the same session — responses are matched
// by request ID, not order). A session may have a bounded number of
// calls outstanding at once; beyond that the server sheds the excess
// with an error reply.
type MuxClient struct {
	fr *framer

	mu      sync.Mutex
	pending map[uint64]*waiter // (sid<<32|rid) -> the call awaiting that reply
	err     error              // sticky: set when the read loop dies
	closed  bool

	// poisoned mirrors err != nil as one atomic load, so a pool placing
	// sessions can skip a dead connection without taking mu on every
	// placement scan.
	poisoned atomic.Bool

	// nextSID is the last session counter value minted; it stops at
	// maxSID, when the connection is spent.
	nextSID atomic.Uint32
	// Self-aligning atomics (plain int64 + atomic.AddInt64 would fault
	// on 32-bit platforms at this struct offset).
	calls, bytesSent, bytesRecv atomic.Int64
	// outstanding counts calls issued but not yet answered — the
	// connection-local load signal a Pool balances new sessions by.
	outstanding atomic.Int64
}

// NewMuxClient starts a multiplexed client over an existing
// connection and takes ownership of it.
func NewMuxClient(conn io.ReadWriteCloser) *MuxClient {
	c := &MuxClient{fr: newFramer(conn), pending: map[uint64]*waiter{}}
	go c.readLoop()
	return c
}

// DialMux connects a MuxClient to a MuxServer at addr.
func DialMux(addr string) (*MuxClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMuxClient(conn), nil
}

func muxKey(sid, rid uint32) uint64 { return uint64(sid)<<32 | uint64(rid) }

// waiter is one call awaiting its reply: the channel the reply frame
// arrives on (closed if the connection dies first) and the memory the
// caller lent for the body. A session embeds one, so a call allocates
// nothing to wait.
type waiter struct {
	ch   chan muxFrame
	into []byte
	// open says the call is a session open (MuxSession.Open), which
	// the connection's Stats leave out.
	open bool
}

func (c *MuxClient) readLoop() {
	for {
		f, head, n, err := c.fr.readMuxHeader()
		if err != nil {
			c.fail(fmt.Errorf("rpc: mux connection lost: %w", err))
			return
		}
		size := int64(head + n)
		// A body the read buffer can hold is waited for whole before its
		// call is taken out of pending, so a CallWithin deadline still
		// fires while a peer stalls mid-body.
		if n <= frameBufSize {
			if _, err = c.fr.br.Peek(n); err != nil {
				c.fail(fmt.Errorf("rpc: mux connection lost: %w", unexpectedEOF(err)))
				return
			}
		}
		key := muxKey(f.sid, f.rid)
		c.mu.Lock()
		w := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		if w == nil || !w.open {
			c.bytesRecv.Add(size)
		}
		if w == nil { // the call timed out and un-registered
			if _, err = c.fr.br.Discard(n); err != nil {
				c.fail(fmt.Errorf("rpc: mux connection lost: %w", unexpectedEOF(err)))
				return
			}
			continue
		}
		// Out of pending, the call is this loop's alone to answer: the body
		// goes into the memory its caller lent, and the caller returns, and
		// may reuse that memory, only once the frame or the closed channel
		// reaches it.
		if f.body, err = c.fr.readBody(n, lent(w.into, n)); err != nil {
			c.fail(fmt.Errorf("rpc: mux connection lost: %w", err))
			close(w.ch) // after fail, so the caller reads the sticky error
			return
		}
		w.ch <- f
	}
}

// fail poisons the client: every pending and future call returns err.
func (c *MuxClient) fail(err error) {
	c.poisoned.Store(true)
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = map[uint64]*waiter{}
	c.mu.Unlock()
	for _, w := range pend {
		close(w.ch) // receiver observes closed channel -> c.err
	}
}

// send writes one client frame. A write error leaves the stream torn
// mid-frame — the next frame would land inside this one — so it takes
// the whole connection out of service: the client is poisoned and the
// connection closed, which also lets the server release the sessions'
// state. It returns the frame's length on the wire.
func (c *MuxClient) send(f muxFrame) (int, error) {
	n, err := c.fr.writeMux(f)
	if err == nil || errors.Is(err, ErrFrameTooLarge) { // refused whole: nothing was written
		return n, err
	}
	c.fail(fmt.Errorf("rpc: mux write failed: %w", err))
	_ = c.fr.conn.Close()
	return 0, c.Err()
}

// exchange sends one call frame on s and waits for the reply frame
// with the same request ID, its body read into into when it fits.
// timeout <= 0 waits for as long as the connection lives; otherwise
// expiry returns ErrCallDeadline. A dead connection returns the client's
// sticky error. Neither req nor into is touched once it returns.
func (c *MuxClient) exchange(s *MuxSession, req, into []byte, timeout time.Duration) (muxFrame, error) {
	// Calls on one session are sequential in every real use, so the
	// session's own waiter serves them all; a concurrent call on the same
	// session finds it taken and makes its own.
	w := &s.w
	if s.waiterBusy.Swap(true) {
		w = &waiter{ch: make(chan muxFrame, 1)}
	} else {
		defer s.idle()
	}
	w.into, w.open = into, len(req) == 0
	ch := w.ch
	rid := s.nextRID.Add(1)
	key := muxKey(s.sid, rid)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return muxFrame{}, err
	}
	c.pending[key] = w
	c.mu.Unlock()
	c.outstanding.Add(1)
	defer c.outstanding.Add(-1)

	sent, err := c.send(muxFrame{sid: s.sid, rid: rid, kind: muxCall, body: req})
	if err != nil {
		// Poisoning closed ch along with every other pending waiter; a
		// frame refused whole leaves the waiter to un-register here.
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return muxFrame{}, err
	}
	if !w.open {
		c.calls.Add(1)
		c.bytesSent.Add(int64(sent))
	}

	var f muxFrame
	ok := false
	if timeout <= 0 {
		f, ok = <-ch
	} else {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case f, ok = <-ch:
		case <-timer.C:
			// Un-register so a straggling reply is skipped on arrival. If
			// the waiter is already gone the read loop has the reply (or
			// the poisoning) and is on its way through ch: take it, which
			// also keeps into the loop's until it is done with it and
			// leaves the session's channel empty for its next call.
			c.mu.Lock()
			_, waiting := c.pending[key]
			delete(c.pending, key)
			c.mu.Unlock()
			if waiting {
				return muxFrame{}, ErrCallDeadline
			}
			f, ok = <-ch
		}
	}
	if !ok {
		return muxFrame{}, c.Err()
	}
	return f, nil
}

// replyError decodes a reply that is not muxReplyOK.
func replyError(f muxFrame) error {
	switch f.kind {
	case muxReplyErr:
		return fmt.Errorf("rpc: remote error: %s", string(f.body))
	case muxReplyShed:
		return fmt.Errorf("rpc: %s: %w", string(f.body), ErrOverloaded)
	}
	return fmt.Errorf("rpc: malformed mux reply kind %d", f.kind)
}

// maxSID is the last session ID a connection mints.
const maxSID = 1<<32 - 1

// Session opens a new logical session. The returned transport is safe
// for concurrent use and independent of every other session on the
// connection. Its ID is the connection's counter, which counts up from
// 1 and mints each value once, so no two sessions of a connection ever
// share an ID. Once all maxSID values are minted the connection is
// spent: the session returned has ID 0, never reaches the wire, and
// fails Open and every call with ErrSessionIDsSpent.
func (c *MuxClient) Session() *MuxSession {
	for {
		sid := c.nextSID.Load()
		if sid >= maxSID {
			return c.newSession(0)
		}
		if c.nextSID.CompareAndSwap(sid, sid+1) {
			return c.newSession(sid + 1)
		}
	}
}

// spent says the connection has minted its last session ID.
func (c *MuxClient) spent() bool { return c.nextSID.Load() >= maxSID }

// newSession opens a session under an ID the caller already reserved.
func (c *MuxClient) newSession(sid uint32) *MuxSession {
	return &MuxSession{c: c, sid: sid, w: waiter{ch: make(chan muxFrame, 1)}}
}

// Err returns the sticky transport error, or nil while the connection
// is healthy. A pool skips poisoned connections when placing sessions.
func (c *MuxClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Outstanding returns how many calls are currently in flight on this
// connection (issued, not yet answered) across all its sessions.
func (c *MuxClient) Outstanding() int64 { return c.outstanding.Load() }

// Stats returns aggregate traffic counters across all sessions. A
// session open (MuxSession.Open) is not a call and counts nowhere.
func (c *MuxClient) Stats() Stats {
	return Stats{
		Calls:     c.calls.Load(),
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
	}
}

// Close tears down the connection; all sessions fail afterwards.
func (c *MuxClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.fr.conn.Close()
	c.fail(errors.New("rpc: mux client closed"))
	return err
}

// MuxSession is one logical session on a MuxClient. It implements
// Transport.
type MuxSession struct {
	c       *MuxClient
	sid     uint32
	nextRID atomic.Uint32
	closed  atomic.Bool
	// w awaits the session's replies; waiterBusy says a call is using
	// it (see exchange).
	w          waiter
	waiterBusy atomic.Bool
}

// idle frees the session's waiter for its next call, keeping none of
// this call's memory reachable.
func (s *MuxSession) idle() {
	s.w.into = nil
	s.waiterBusy.Store(false)
}

// ID returns the session's connection-scoped identifier (0 on a spent
// connection).
func (s *MuxSession) ID() uint32 { return s.sid }

// Conn returns the connection the session is pinned to.
func (s *MuxSession) Conn() *MuxClient { return s.c }

// Open opens the session on the server now instead of at its first
// call, with an empty call the server answers without running a
// handler and Stats do not count. A server's admission policy decides
// here: a refusal is ErrOverloaded and leaves nothing open, and a
// session it admitted is never refused by it again.
func (s *MuxSession) Open() error {
	_, err := s.call(nil, nil, 0)
	return err
}

// Call implements Transport.
func (s *MuxSession) Call(req []byte) ([]byte, error) { return s.CallInto(req, nil) }

// CallInto is Call with the reply read into into's array when it fits
// (see Transport).
func (s *MuxSession) CallInto(req, into []byte) ([]byte, error) { return s.call(req, into, 0) }

// CallWithin is CallInto bounded by timeout (<= 0 means
// DefaultCallDeadline), for a caller that must never wedge on a stalled
// peer — a dialer asking a server what it serves. Expiry returns
// ErrCallDeadline; a dead connection returns an error matching
// ErrPoolPoisoned, so "server down" reads the same as the pool's own
// signal.
func (s *MuxSession) CallWithin(req, into []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = DefaultCallDeadline
	}
	resp, err := s.call(req, into, timeout)
	if err != nil && s.c.Err() != nil {
		return nil, fmt.Errorf("rpc: call on dead connection: %w: %v", ErrPoolPoisoned, err)
	}
	return resp, err
}

func (s *MuxSession) call(req, into []byte, timeout time.Duration) ([]byte, error) {
	Released(into)
	if s.closed.Load() {
		return nil, fmt.Errorf("rpc: session %d closed", s.sid)
	}
	if s.sid == 0 {
		return nil, ErrSessionIDsSpent
	}
	f, err := s.c.exchange(s, req, into, timeout)
	if err != nil {
		return nil, err
	}
	if f.kind == muxReplyOK {
		return f.body, nil
	}
	return nil, replyError(f)
}

// Close implements Transport: it retires this session on the server
// (releasing its state) but leaves the shared connection open. A
// session of a spent connection was never on the wire: its Close sends
// nothing.
func (s *MuxSession) Close() error {
	if s.closed.Swap(true) || s.sid == 0 {
		return nil
	}
	_, err := s.c.send(muxFrame{sid: s.sid, kind: muxCloseSess})
	return err
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

// SessionHandlers provides per-session request handlers for one
// multiplexed connection. Open is called once per new session ID;
// Closed is called when the session ends (explicit close frame or
// connection teardown), at most once per opened session.
type SessionHandlers interface {
	Open(sid uint32) Handler
	Closed(sid uint32)
}

// HandlerFactory adapts a stateless per-session handler constructor to
// SessionHandlers (no teardown needed).
type HandlerFactory func(sid uint32) Handler

func (f HandlerFactory) Open(sid uint32) Handler { return f(sid) }
func (f HandlerFactory) Closed(uint32)           {}

// sessionWorker preserves per-session request ordering: all calls for
// one session run on one goroutine, while distinct sessions run
// concurrently.
type sessionWorker struct {
	ch chan muxFrame
}

// SessionQueueDepth bounds how many requests one session may have
// outstanding; excess calls are shed with an ErrOverloaded reply
// rather than blocking the connection's read loop (which would wedge
// every session behind one flooded queue). Every client in this tree
// makes one call at a time per session, so the bound only ever stops
// some other peer.
const SessionQueueDepth = 32

// AdmissionPolicy lets a server refuse work. It decides once per
// session, when the session opens (MuxSession.Open, or else its first
// call): a returned error sheds that frame with a muxReplyShed reply —
// the client sees the typed ErrOverloaded — before any session or
// transaction state exists, and a session it admitted runs every later
// call. Implementations are called from every connection's demux loop and
// must be safe for concurrent use.
type AdmissionPolicy interface {
	// AdmitSession gates creation of a new session. On error the
	// session is not opened (no handler, no worker) and the triggering
	// call is shed; a later call may retry admission.
	AdmitSession(sid uint32) error
	// SessionClosed releases the admission slot of a session that
	// passed AdmitSession, after its worker drained (explicit close or
	// connection teardown). Called exactly once per admitted session.
	SessionClosed(sid uint32)
}

// MuxServeConfig tunes one demux loop beyond the defaults.
type MuxServeConfig struct {
	// Admission, when non-nil, gates session creation; a refused
	// session's opening frame is shed with an ErrOverloaded reply.
	Admission AdmissionPolicy
}

// ServeMuxConn demuxes one multiplexed connection, dispatching each
// session's requests to its own handler on its own goroutine. It
// returns when the connection fails or closes, after all session
// workers have drained and Closed has fired for each open session.
func ServeMuxConn(conn io.ReadWriteCloser, handlers SessionHandlers) {
	ServeMuxConnConfig(conn, handlers, MuxServeConfig{})
}

// ServeMuxConnConfig is ServeMuxConn with an explicit configuration.
func ServeMuxConnConfig(conn io.ReadWriteCloser, handlers SessionHandlers, cfg MuxServeConfig) {
	var (
		fr       = newFramer(conn)
		bodies   bodyPool
		wg       sync.WaitGroup
		sessions = map[uint32]*sessionWorker{}
		// retired tombstones recently closed session IDs: a call racing
		// its session's close frame can arrive just after the close and
		// must fail, not resurrect the session with fresh empty state.
		// The race window is at most the session's in-flight calls, so
		// a bounded FIFO suffices and keeps long-lived connections from
		// accumulating one entry per session ever served.
		retired      = map[uint32]bool{}
		retiredOrder []uint32
	)
	defer func() {
		for sid, sw := range sessions {
			close(sw.ch)
			delete(sessions, sid)
		}
		wg.Wait()
	}()
	// reply answers req with one frame and then releases the request
	// body: a handler may return (part of) its request as the reply, so
	// the body stays valid until the reply is written. false means the
	// connection is dead.
	reply := func(req muxFrame, kind byte, body []byte) bool {
		out := muxFrame{sid: req.sid, rid: req.rid, kind: kind, body: body}
		_, err := fr.writeMux(out)
		Released(body) // the handler's again; before the request, which it may alias
		bodies.putBody(req.body)
		if errors.Is(err, ErrFrameTooLarge) {
			// Refused whole, so the stream is intact: the caller gets an
			// error reply instead of waiting forever.
			out.kind, out.body = muxReplyErr, []byte(err.Error())
			_, err = fr.writeMux(out)
		}
		return err == nil
	}
	// shed refuses one call with the typed shed reply (the client sees
	// ErrOverloaded and backs off).
	shed := func(req muxFrame, reason string) bool {
		return reply(req, muxReplyShed, []byte(reason))
	}
	// enqueue hands req to its session's worker, shedding it when the
	// queue is full so one flooded session can never stall the read
	// loop (and with it every other session on the connection). The
	// typed shed reply lets the client back off and retry instead of
	// failing its transaction.
	enqueue := func(sw *sessionWorker, req muxFrame) bool {
		select {
		case sw.ch <- req:
			return true
		default:
			return shed(req, fmt.Sprintf("session %d queue overflow (max %d outstanding calls)", req.sid, SessionQueueDepth))
		}
	}
	// work is one session's worker: it runs the session's requests in
	// arrival order, so a handler's calls are sequential.
	work := func(sid uint32, sw *sessionWorker, h Handler) {
		defer wg.Done()
		defer func() {
			handlers.Closed(sid)
			if cfg.Admission != nil {
				// The admission slot frees only after the handler
				// released the session's state.
				cfg.Admission.SessionClosed(sid)
			}
		}()
		for req := range sw.ch {
			kind := muxReplyOK
			resp, herr := h(req.body)
			if herr != nil {
				kind, resp = muxReplyErr, []byte(herr.Error())
			}
			if !reply(req, kind, resp) {
				// The connection is dead; keep draining so the read loop
				// never blocks on a full queue before it notices the
				// failure itself.
				for range sw.ch {
				}
				return
			}
		}
	}
	for {
		f, _, n, err := fr.readMuxHeader()
		if err != nil {
			return
		}
		switch f.kind {
		case muxCall, muxCloseSess:
		default:
			// Unknown frame kind from a client: drop the connection.
			return
		}
		if f.body, err = fr.readBody(n, bodies.getBody(n)); err != nil {
			return
		}
		switch f.kind {
		case muxCall:
			if retired[f.sid] {
				if !reply(f, muxReplyErr, []byte(fmt.Sprintf("session %d closed", f.sid))) {
					return
				}
				continue
			}
			sw := sessions[f.sid]
			if sw == nil {
				// Session admission: refused sessions are never opened —
				// no handler, no worker, no transaction state — so the
				// shed is free to retry once capacity returns.
				if cfg.Admission != nil {
					if aerr := cfg.Admission.AdmitSession(f.sid); aerr != nil {
						if !shed(f, aerr.Error()) {
							return
						}
						continue
					}
				}
				sw = &sessionWorker{ch: make(chan muxFrame, SessionQueueDepth)}
				sessions[f.sid] = sw
				wg.Add(1)
				go work(f.sid, sw, handlers.Open(f.sid))
			}
			if len(f.body) == 0 {
				// An empty call only opens its session (MuxSession.Open):
				// no handler sees it.
				if !reply(f, muxReplyOK, nil) {
					return
				}
				continue
			}
			if !enqueue(sw, f) {
				return
			}
		case muxCloseSess:
			bodies.putBody(f.body)
			if sw := sessions[f.sid]; sw != nil {
				close(sw.ch)
				delete(sessions, f.sid)
			}
			if !retired[f.sid] {
				retired[f.sid] = true
				retiredOrder = append(retiredOrder, f.sid)
				if len(retiredOrder) > muxRetiredCap {
					delete(retired, retiredOrder[0])
					retiredOrder = retiredOrder[1:]
				}
			}
		}
	}
}

// MuxServer accepts connections and serves each as a multiplexed
// session stream. The factory runs once per connection, producing that
// connection's SessionHandlers (so session IDs from different
// connections never collide).
type MuxServer struct {
	lis     net.Listener
	factory func() SessionHandlers
	cfg     MuxServeConfig
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{} // accepted and still being served
}

// NewMuxServer listens on addr, creating per-connection session
// handlers via factory.
func NewMuxServer(addr string, factory func() SessionHandlers) (*MuxServer, error) {
	return NewMuxServerConfig(addr, factory, MuxServeConfig{})
}

// NewMuxServerConfig is NewMuxServer with an explicit demux
// configuration, shared by every connection the server accepts. A
// cfg.Admission policy is therefore server-wide: its session
// accounting spans every connection.
func NewMuxServerConfig(addr string, factory func() SessionHandlers, cfg MuxServeConfig) (*MuxServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &MuxServer{lis: lis, factory: factory, cfg: cfg, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *MuxServer) Addr() string { return s.lis.Addr().String() }

func (s *MuxServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			// Accepted in the window before Close shut the listener.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		h := s.factory()
		go func() {
			defer s.wg.Done()
			ServeMuxConnConfig(conn, h, s.cfg)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, hangs up every connection and returns once
// each has drained: every session's Closed has run, so any transaction
// a client left open is rolled back. It does not wait for clients to
// hang up first.
func (s *MuxServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
