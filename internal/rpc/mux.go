package rpc

// This file is the transport over connections: many logical sessions
// share one connection, each session carrying concurrent
// request/response exchanges. A MuxSession implements Transport, so
// everything built on Transport (dbapi.Client, the runtime's
// control-transfer protocol) runs over a connection exactly as it runs
// over InProc; a deployment with one client is a mux with one session.
//
// Mux wire format: every frame is the usual 4-byte length prefix
// followed by a 9-byte header and the body:
//
//	[sid u32][rid u32][kind u8][body...]
//
// sid identifies the session (allocated by the client, scoped to the
// connection), rid the request within the session. Kinds:
//
//	muxCall      client -> server   body = request payload
//	muxReplyOK   server -> client   body = response payload
//	muxReplyErr  server -> client   body = error text
//	muxCloseSess client -> server   session teardown (no reply)
//	muxReplyShed server -> client   body = shed reason (queue overflow)
//
// A client sends calls and closes, nothing else. Two-phase commit and
// range-migration control are dbapi operations riding muxCall on the
// branch's own session like every statement, so they stay ordered with
// its calls and the mux knows nothing of transactions.
//
// Reply kinds may additionally carry the muxFlagLoad bit: the body is
// then prefixed with a length-delimited LoadReport (the DB server's
// saturation sample, paper §6.3) ahead of the normal payload. The flag
// appears only when the server has a LoadSource configured
// (MuxServeConfig.Load) and the source has a sample for that reply.
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
	// muxReplyShed rejects a call the server refused to queue (session
	// queue overflow). It is distinct from muxReplyErr so clients can
	// surface the typed ErrOverloaded sentinel: overload is retryable
	// back-off territory, not an application failure.
	muxReplyShed
)

// muxFlagLoad marks a reply frame whose body starts with an encoded
// LoadReport (see wire.go) before the regular payload.
const muxFlagLoad byte = 0x80

// ErrOverloaded reports that the server shed a call because the
// session's queue was full. Callers should back off and retry instead
// of failing the transaction; errors.Is matches it through wrapping.
var ErrOverloaded = errors.New("rpc: server overloaded")

// ErrTxnDeadline reports that a CallWithin did not complete within its
// deadline. A 2PC coordinator treats it like a dead participant: abort
// the global transaction (a participant that did prepare resolves via
// its own in-doubt deadline and re-query).
var ErrTxnDeadline = errors.New("rpc: call deadline exceeded")

// DefaultTxnDeadline bounds a CallWithin that names no timeout.
const DefaultTxnDeadline = 5 * time.Second

const muxHeaderLen = 9

// muxRetiredCap bounds the retired-session tombstone FIFO kept by
// each side: the server remembers the last muxRetiredCap closed
// session IDs per connection (a call racing its session's close frame
// must fail, not resurrect the session), and the client quarantines a
// closed ID for the same number of closes before letting a wrapped
// counter re-mint it — the two FIFOs advance on the same close events,
// so an ID the client hands out again is guaranteed evicted from the
// server's tombstones.
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
	pending map[uint64]chan muxFrame // (sid<<32|rid) -> reply slot
	err     error                    // sticky: set when the read loop dies
	closed  bool
	// live is the wrap-collision guard: every session ID currently open
	// on this connection, plus the closed IDs still quarantined below.
	// The 24-bit session counter wraps, and a recycled ID handed to a
	// second session would cross-route replies between the two;
	// TaggedSession/release keep a wrapped counter skipping over IDs
	// that are still open.
	live map[uint32]struct{}
	// recycled quarantines closed IDs in close order, mirroring the
	// server's retired-session tombstone FIFO exactly: the server
	// rejects calls on the last muxRetiredCap closed IDs (to kill calls
	// racing a close), so an ID only becomes allocatable again once
	// enough later closes have evicted it from the far end's tombstones.
	recycled []uint32

	// poisoned mirrors err != nil as one atomic load, so a pool placing
	// sessions can skip a dead connection without taking mu on every
	// placement scan.
	poisoned atomic.Bool

	nextSID atomic.Uint32
	// Self-aligning atomics (plain int64 + atomic.AddInt64 would fault
	// on 32-bit platforms at this struct offset).
	calls, bytesSent, bytesRecv atomic.Int64
	// outstanding counts calls issued but not yet answered — the
	// connection-local load signal a ShardedPool balances new sessions by.
	outstanding atomic.Int64

	// onLoad receives every LoadReport piggy-backed on reply frames.
	onLoad      atomic.Pointer[func(LoadReport)]
	loadReports atomic.Int64
}

// NewMuxClient starts a multiplexed client over an existing
// connection and takes ownership of it.
func NewMuxClient(conn io.ReadWriteCloser) *MuxClient {
	c := &MuxClient{fr: newFramer(conn), pending: map[uint64]chan muxFrame{}, live: map[uint32]struct{}{}}
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

func (c *MuxClient) readLoop() {
	for {
		f, n, err := c.fr.readMuxHeader()
		if err != nil {
			c.fail(fmt.Errorf("rpc: mux connection lost: %w", err))
			return
		}
		c.bytesRecv.Add(int64(n) + muxHeaderLen + 4)
		if f.kind&muxFlagLoad != 0 {
			var rep LoadReport
			if rep, n, err = c.fr.readLoadReport(n); err != nil {
				c.fail(fmt.Errorf("rpc: mux load report corrupt: %w", err))
				return
			}
			f.kind &^= muxFlagLoad
			c.loadReports.Add(1)
			if fn := c.onLoad.Load(); fn != nil {
				(*fn)(rep)
			}
		}
		// The body is the caller's own from here on: exact size, the one
		// allocation a round trip keeps.
		if f.body, err = c.fr.readBody(n, nil); err != nil {
			c.fail(fmt.Errorf("rpc: mux connection lost: %w", err))
			return
		}
		key := muxKey(f.sid, f.rid)
		c.mu.Lock()
		ch, ok := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		if ok { // else the call timed out and un-registered
			ch <- f
		}
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
	c.pending = map[uint64]chan muxFrame{}
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch) // receiver observes closed channel -> c.err
	}
}

// send writes one client frame. A write error leaves the stream torn
// mid-frame — the next frame would land inside this one — so it takes
// the whole connection out of service: the client is poisoned and the
// connection closed, which also lets the server release the sessions'
// state.
func (c *MuxClient) send(f muxFrame) error {
	err := c.fr.writeMux(f, LoadReport{}, false)
	if err == nil || errors.Is(err, ErrFrameTooLarge) { // refused whole: nothing was written
		return err
	}
	c.fail(fmt.Errorf("rpc: mux write failed: %w", err))
	_ = c.fr.conn.Close()
	return c.Err()
}

// exchange sends one call frame on s and waits for the reply frame
// with the same request ID. timeout <= 0 waits for as long as the
// connection lives; otherwise expiry returns ErrTxnDeadline. A dead
// connection returns the client's sticky error. req is not retained.
func (c *MuxClient) exchange(s *MuxSession, req []byte, timeout time.Duration) (muxFrame, error) {
	// Calls on one session are sequential in every real use, so the
	// session's own reply channel serves them all; a concurrent call on
	// the same session finds it taken and makes its own.
	ch := s.reply
	if s.replyBusy.Swap(true) {
		ch = make(chan muxFrame, 1)
	} else {
		defer s.replyBusy.Store(false)
	}
	rid := s.nextRID.Add(1)
	key := muxKey(s.sid, rid)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return muxFrame{}, err
	}
	c.pending[key] = ch
	c.mu.Unlock()
	c.outstanding.Add(1)
	defer c.outstanding.Add(-1)

	if err := c.send(muxFrame{sid: s.sid, rid: rid, kind: muxCall, body: req}); err != nil {
		// Poisoning closed ch along with every other pending slot; a
		// frame refused whole leaves the slot to un-register here.
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return muxFrame{}, err
	}
	c.calls.Add(1)
	c.bytesSent.Add(int64(len(req)) + muxHeaderLen + 4)

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
			// the slot is already gone the reply (or the poisoning) beat
			// the timer and is on its way through ch: take it, which also
			// leaves the session's channel empty for its next call.
			c.mu.Lock()
			_, waiting := c.pending[key]
			delete(c.pending, key)
			c.mu.Unlock()
			if waiting {
				return muxFrame{}, ErrTxnDeadline
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

// sessionTagShift puts the session tag in the ID's top byte, leaving a
// 24-bit per-connection counter underneath.
const sessionTagShift = 24

// SessionTag extracts the variant tag a client encoded into a session
// ID with TaggedSession (0 for plain sessions).
func SessionTag(sid uint32) uint8 { return uint8(sid >> sessionTagShift) }

// Session opens a new logical session. The returned transport is safe
// for concurrent use and independent of every other session on the
// connection.
func (c *MuxClient) Session() *MuxSession { return c.TaggedSession(0) }

// TaggedSession opens a session whose ID carries tag in its top byte.
// Tags let one connection multiplex sessions of several server-side
// variants — e.g. the high- and low-budget deployments of dynamic
// switching — with the server routing Open by SessionTag. Session IDs
// stay client-allocated and connection-scoped; the counter wraps after
// 2^24 sessions per connection, at which point two guards engage:
// counter value 0 is never minted (session ID 0 under tag 0 is
// indistinguishable from "no session", and the lowest recycled IDs are
// the likeliest to still be open), and any ID belonging to a
// still-open session is skipped rather than handed out twice (a
// duplicate ID would cross-route the two sessions' replies).
func (c *MuxClient) TaggedSession(tag uint8) *MuxSession {
	const space = 1 << sessionTagShift
	base := uint32(tag) << sessionTagShift
	// If every counter value under this tag belongs to a live session —
	// 2^24 concurrently open sessions, beyond any real deployment — the
	// session gets the (colliding) base ID rather than spinning forever;
	// its first call will misbehave exactly as the pre-guard code did.
	sid := base
	c.mu.Lock()
	for k := 0; k < space; k++ {
		ctr := c.nextSID.Add(1) & (space - 1)
		if ctr == 0 {
			continue
		}
		if _, taken := c.live[base|ctr]; !taken {
			sid = base | ctr
			c.live[sid] = struct{}{}
			break
		}
	}
	c.mu.Unlock()
	return c.newSession(sid)
}

// newSession opens a session under an ID the caller already reserved.
func (c *MuxClient) newSession(sid uint32) *MuxSession {
	return &MuxSession{c: c, sid: sid, reply: make(chan muxFrame, 1)}
}

// release retires sid into the quarantine FIFO; it returns to the
// allocatable space only after muxRetiredCap further closes, when the
// server's matching tombstone has been evicted too.
func (c *MuxClient) release(sid uint32) {
	c.mu.Lock()
	if _, ok := c.live[sid]; ok {
		c.recycled = append(c.recycled, sid)
		if len(c.recycled) > muxRetiredCap {
			delete(c.live, c.recycled[0])
			c.recycled = c.recycled[1:]
		}
	}
	c.mu.Unlock()
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

// SetOnLoad registers fn to receive every load report piggy-backed on
// this connection's replies (any session). Safe to call concurrently
// with traffic; nil unregisters.
func (c *MuxClient) SetOnLoad(fn func(LoadReport)) {
	if fn == nil {
		c.onLoad.Store(nil)
		return
	}
	c.onLoad.Store(&fn)
}

// LoadReports returns how many piggy-backed load reports this
// connection has received.
func (c *MuxClient) LoadReports() int64 { return c.loadReports.Load() }

// Stats returns aggregate traffic counters across all sessions.
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
	// reply carries the session's replies; replyBusy says a call is
	// using it (see exchange).
	reply     chan muxFrame
	replyBusy atomic.Bool
}

// ID returns the session's connection-scoped identifier.
func (s *MuxSession) ID() uint32 { return s.sid }

// Conn returns the connection the session is pinned to.
func (s *MuxSession) Conn() *MuxClient { return s.c }

// Call implements Transport.
func (s *MuxSession) Call(req []byte) ([]byte, error) { return s.call(req, 0) }

// CallWithin is Call bounded by timeout (<= 0 means
// DefaultTxnDeadline), for a caller that must never wedge on a stalled
// peer — a 2PC coordinator, a range migrator. Expiry returns
// ErrTxnDeadline; a dead connection returns an error matching
// ErrPoolPoisoned, so "shard down" reads the same as the pool's own
// signal.
func (s *MuxSession) CallWithin(req []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = DefaultTxnDeadline
	}
	resp, err := s.call(req, timeout)
	if err != nil && s.c.Err() != nil {
		return nil, fmt.Errorf("rpc: call on dead connection: %w: %v", ErrPoolPoisoned, err)
	}
	return resp, err
}

func (s *MuxSession) call(req []byte, timeout time.Duration) ([]byte, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("rpc: session %d closed", s.sid)
	}
	f, err := s.c.exchange(s, req, timeout)
	if err != nil {
		return nil, err
	}
	if f.kind == muxReplyOK {
		return f.body, nil
	}
	return nil, replyError(f)
}

// Close implements Transport: it retires this session on the server
// (releasing its state) but leaves the shared connection open.
func (s *MuxSession) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.c.release(s.sid)
	return s.c.send(muxFrame{sid: s.sid, kind: muxCloseSess})
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
// every session behind one flooded queue). The Pyxis runtime keeps a
// single logical thread per session (at most one outstanding call), so
// the limit is never hit in normal operation. Exported so load
// monitors can normalize queue-depth samples against the capacity.
const SessionQueueDepth = 32

// LoadSource supplies the server's current load sample for
// piggy-backing on reply frames; nil disables reports. queueLen is the
// replying session's queue depth at reply time. Returning ok=false
// omits the report from that frame. Implementations are called from
// every session worker concurrently and must be safe for concurrent
// use.
type LoadSource func(queueLen int) (rep LoadReport, ok bool)

// AdmissionPolicy lets a server refuse work instead of merely
// reporting saturation: the demux loop consults it before creating a
// session and before queueing each call. A returned error sheds the
// frame with a muxReplyShed reply — the client sees the typed
// ErrOverloaded and its existing backoff applies — without any session
// or transaction state having been created. Implementations are called
// from every connection's demux loop and must be safe for concurrent
// use.
type AdmissionPolicy interface {
	// AdmitSession gates creation of a new session. On error the
	// session is not opened (no handler, no worker) and the triggering
	// call is shed; a later call may retry admission.
	AdmitSession(sid uint32) error
	// AdmitCall gates queueing one call on an admitted session;
	// queueLen is the session's queue depth at arrival. On error the
	// call is shed and the session stays live.
	AdmitCall(sid uint32, queueLen int) error
	// SessionClosed releases the admission slot of a session that
	// passed AdmitSession, after its worker drained (explicit close or
	// connection teardown). Called exactly once per admitted session.
	SessionClosed(sid uint32)
}

// MuxServeConfig tunes one demux loop beyond the defaults.
type MuxServeConfig struct {
	// Load, when non-nil, attaches a load report to every reply frame
	// (including sheds — overload is exactly when the peer most wants
	// the signal).
	Load LoadSource
	// Admission, when non-nil, gates session creation and per-call
	// queueing; refused frames are shed with ErrOverloaded replies.
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
	// reply answers req with one frame — the load report, when a source
	// is configured and has a sample, goes straight into the write
	// buffer — and then releases the request body: a handler may return
	// (part of) its request as the reply, so the body stays valid until
	// the reply is written. false means the connection is dead.
	reply := func(req muxFrame, kind byte, body []byte, queueLen int) bool {
		var rep LoadReport
		hasRep := false
		if cfg.Load != nil {
			rep, hasRep = cfg.Load(queueLen)
		}
		out := muxFrame{sid: req.sid, rid: req.rid, kind: kind, body: body}
		err := fr.writeMux(out, rep, hasRep)
		Released(body) // the handler's again; before the request, which it may alias
		bodies.putBody(req.body)
		if errors.Is(err, ErrFrameTooLarge) {
			// Refused whole, so the stream is intact: the caller gets an
			// error reply instead of waiting forever.
			out.kind, out.body = muxReplyErr, []byte(err.Error())
			err = fr.writeMux(out, rep, hasRep)
		}
		return err == nil
	}
	// shed refuses one call with the typed shed reply (the client sees
	// ErrOverloaded and backs off).
	shed := func(req muxFrame, reason string, queueLen int) bool {
		return reply(req, muxReplyShed, []byte(reason), queueLen)
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
			return shed(req, fmt.Sprintf("session %d queue overflow (max %d outstanding calls)", req.sid, SessionQueueDepth), len(sw.ch))
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
			if !reply(req, kind, resp, len(sw.ch)) {
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
		f, n, err := fr.readMuxHeader()
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
				if !reply(f, muxReplyErr, []byte(fmt.Sprintf("session %d closed", f.sid)), 0) {
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
						if !shed(f, aerr.Error(), 0) {
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
			// Call admission: a saturated server tightens the effective
			// queue bound below the structural SessionQueueDepth.
			if cfg.Admission != nil {
				if aerr := cfg.Admission.AdmitCall(f.sid, len(sw.ch)); aerr != nil {
					if !shed(f, aerr.Error(), len(sw.ch)) {
						return
					}
					continue
				}
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
