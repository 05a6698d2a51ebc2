package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandlers tags every response with the session ID it was served
// under, so tests can detect cross-session routing mistakes.
type echoHandlers struct {
	opened atomic.Int64
	closed atomic.Int64
}

func (h *echoHandlers) Open(sid uint32) Handler {
	h.opened.Add(1)
	return func(req []byte) ([]byte, error) {
		if len(req) >= 4 && string(req[:4]) == "FAIL" {
			return nil, errors.New("handler said no")
		}
		out := make([]byte, 4+len(req))
		binary.LittleEndian.PutUint32(out, sid)
		copy(out[4:], req)
		return out, nil
	}
}

func (h *echoHandlers) Closed(uint32) { h.closed.Add(1) }

func pipeMux(t *testing.T, h SessionHandlers) (*MuxClient, chan struct{}) {
	t.Helper()
	srvConn, cliConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		ServeMuxConn(srvConn, h)
		close(done)
	}()
	c := NewMuxClient(cliConn)
	t.Cleanup(func() { c.Close(); <-done })
	return c, done
}

// pipeMuxConfig is pipeMux with an explicit demux configuration.
func pipeMuxConfig(t *testing.T, h SessionHandlers, cfg MuxServeConfig) *MuxClient {
	t.Helper()
	srvConn, cliConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		ServeMuxConnConfig(srvConn, h, cfg)
		close(done)
	}()
	c := NewMuxClient(cliConn)
	t.Cleanup(func() { c.Close(); <-done })
	return c
}

// dummyLoopbackClient serves raw frames with reply, bypassing the
// demux loop, so tests can inject arbitrary reply kinds.
func dummyLoopbackClient(t *testing.T, reply func(muxFrame) muxFrame) *MuxClient {
	t.Helper()
	srvConn, cliConn := net.Pipe()
	go func() {
		fr := newFramer(srvConn)
		for {
			f, err := fr.readMuxFrame()
			if err != nil {
				return
			}
			if _, err := fr.writeMux(reply(f)); err != nil {
				return
			}
		}
	}()
	c := NewMuxClient(cliConn)
	t.Cleanup(func() { c.Close(); srvConn.Close() })
	return c
}

// TestMuxShedSentinelKind speaks the raw protocol to pin how a reply's
// kind byte decodes: a shed surfaces as ErrOverloaded, and a kind with
// the high bit set (0x80 once flagged a load report ahead of the body)
// fails its call as malformed with the body unread as anything else —
// the connection stays in step and serves the next call.
func TestMuxShedSentinelKind(t *testing.T) {
	// The request's first byte is the reply kind, the rest its body.
	c := dummyLoopbackClient(t, func(f muxFrame) muxFrame {
		return muxFrame{sid: f.sid, rid: f.rid, kind: f.body[0], body: f.body[1:]}
	})
	// An old load report (length byte 0x1c, 28 bytes of fields) and then
	// the payload "world".
	report := []byte("\x1c\x00\x00\x00\x00\x00\x40\x45\x40\x00\x00\x00\x00\x00\x80\x28\x40" +
		"\x00\x00\x00\x00\x00\x00\x08\x40\x07\x00\x00\x00world")
	s := c.Session()
	for _, tc := range []struct {
		kind byte
		body []byte
		want string // error text; "" means the reply is the body
	}{
		{muxReplyShed, []byte("busy"), "busy: " + ErrOverloaded.Error()},
		{0x80 | muxReplyOK, report, "malformed mux reply kind 129"},
		{0x80 | muxReplyShed, []byte("busy"), "malformed mux reply kind 132"},
		{0x80, nil, "malformed mux reply kind 128"},
		{muxReplyOK, []byte("after"), ""},
	} {
		resp, err := s.Call(append([]byte{tc.kind}, tc.body...))
		switch {
		case tc.want == "" && (err != nil || string(resp) != string(tc.body)):
			t.Errorf("kind %#x: reply %q %v, want %q", tc.kind, resp, err, tc.body)
		case tc.want != "" && (err == nil || !strings.HasSuffix(err.Error(), tc.want)):
			t.Errorf("kind %#x: reply %q %v, want error %q", tc.kind, resp, err, tc.want)
		}
		if isShed := errors.Is(err, ErrOverloaded); isShed != (tc.kind == muxReplyShed) {
			t.Errorf("kind %#x: errors.Is(ErrOverloaded) = %v", tc.kind, isShed)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("a malformed kind failed the connection: %v", err)
	}
}

// TestMuxInterleavedConcurrentCalls floods one connection with many
// sessions calling concurrently — including concurrent calls within a
// session — and checks every response routed back to its caller.
func TestMuxInterleavedConcurrentCalls(t *testing.T) {
	h := &echoHandlers{}
	c, _ := pipeMux(t, h)

	const (
		sessions        = 16
		callsPerSession = 40
		parallelPerSess = 4
	)
	var wg sync.WaitGroup
	errCh := make(chan error, sessions*parallelPerSess)
	for i := 0; i < sessions; i++ {
		s := c.Session()
		for p := 0; p < parallelPerSess; p++ {
			wg.Add(1)
			go func(s *MuxSession, p int) {
				defer wg.Done()
				for k := 0; k < callsPerSession/parallelPerSess; k++ {
					msg := fmt.Sprintf("s%d-p%d-k%d", s.ID(), p, k)
					resp, err := s.Call([]byte(msg))
					if err != nil {
						errCh <- err
						return
					}
					if len(resp) < 4 {
						errCh <- fmt.Errorf("short response for %q", msg)
						return
					}
					gotSID := binary.LittleEndian.Uint32(resp)
					if gotSID != s.ID() {
						errCh <- fmt.Errorf("call %q served under session %d, want %d", msg, gotSID, s.ID())
						return
					}
					if string(resp[4:]) != msg {
						errCh <- fmt.Errorf("echo mismatch: got %q want %q", resp[4:], msg)
						return
					}
				}
			}(s, p)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := h.opened.Load(); got != sessions {
		t.Errorf("opened %d handlers, want %d", got, sessions)
	}
	st := c.Stats()
	if st.Calls != sessions*callsPerSession {
		t.Errorf("stats.Calls = %d, want %d", st.Calls, sessions*callsPerSession)
	}
}

// TestMuxErrorPropagation checks a handler error surfaces on the
// calling session only, leaving other traffic intact.
func TestMuxErrorPropagation(t *testing.T) {
	c, _ := pipeMux(t, &echoHandlers{})
	bad := c.Session()
	good := c.Session()

	if _, err := bad.Call([]byte("FAIL now")); err == nil {
		t.Fatal("want remote error")
	} else if !strings.Contains(err.Error(), "handler said no") {
		t.Fatalf("error text lost: %v", err)
	}
	// Both sessions keep working afterwards.
	for _, s := range []*MuxSession{bad, good} {
		if resp, err := s.Call([]byte("ok")); err != nil || string(resp[4:]) != "ok" {
			t.Fatalf("session %d after error: %v %q", s.ID(), err, resp)
		}
	}
}

// TestMuxSessionClose verifies explicit closes retire server state
// exactly once and that a closed session rejects further calls.
func TestMuxSessionClose(t *testing.T) {
	h := &echoHandlers{}
	c, done := pipeMux(t, h)

	s1, s2 := c.Session(), c.Session()
	if _, err := s1.Call([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Call([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if _, err := s1.Call([]byte("after close")); err == nil {
		t.Fatal("closed session accepted a call")
	}
	// s2 unaffected.
	if _, err := s2.Call([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	// Tear down the connection: the remaining session is closed too.
	c.Close()
	<-done
	if got := h.closed.Load(); got < 2 {
		// s1's close frame may race conn teardown; after both, every
		// opened session must have been retired.
		t.Errorf("closed %d sessions, want 2", got)
	}
}

// TestMuxSessionQueueOverflowSheds floods one session whose handler is
// blocked: excess calls must be rejected with an error reply while the
// read loop — and so every other session on the connection — stays
// live. Without shedding this wedges the whole connection.
func TestMuxSessionQueueOverflowSheds(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	h := HandlerFactory(func(sid uint32) Handler {
		return func(req []byte) ([]byte, error) {
			if string(req) == "block" {
				<-gate
			}
			return req, nil
		}
	})
	srvConn, cliConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		ServeMuxConn(srvConn, h)
		close(done)
	}()
	c := NewMuxClient(cliConn)
	defer func() { gateOnce.Do(func() { close(gate) }); c.Close(); <-done }()

	flooded := c.Session()
	const inflight = SessionQueueDepth + 8
	errs := make(chan error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := flooded.Call([]byte("block"))
			errs <- err
		}()
	}
	// Wait until the flood has saturated the worker + queue, then show
	// the connection still serves another session.
	deadline := time.After(5 * time.Second)
	for {
		if n := int(c.Stats().Calls); n >= inflight {
			break
		}
		select {
		case <-deadline:
			t.Fatal("flood never fully issued")
		case <-time.After(time.Millisecond):
		}
	}
	other := c.Session()
	okCh := make(chan error, 1)
	go func() {
		_, err := other.Call([]byte("hi"))
		okCh <- err
	}()
	select {
	case err := <-okCh:
		if err != nil {
			t.Fatalf("other session starved: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read loop wedged: other session's call never completed")
	}

	gateOnce.Do(func() { close(gate) })
	wg.Wait()
	close(errs)
	shed, served := 0, 0
	for err := range errs {
		if err == nil {
			served++
		} else if errors.Is(err, ErrOverloaded) {
			// Regression: sheds must carry the typed sentinel, not an
			// anonymous muxReplyErr text, so clients can back off and
			// retry instead of failing the transaction.
			if !strings.Contains(err.Error(), "queue overflow") {
				t.Errorf("shed error lost its reason: %v", err)
			}
			shed++
		} else {
			t.Fatalf("flooded session saw a non-ErrOverloaded error: %v", err)
		}
	}
	if shed == 0 {
		t.Error("no calls were shed despite exceeding the queue depth")
	}
	if served == 0 {
		t.Error("every call was shed; queued calls should still be served")
	}
}

// TestMuxRetiredSessionNotResurrected speaks the raw protocol to model
// a call racing its own session's close frame (possible when a session
// is used from two goroutines): the late call must get an error, not a
// silently re-opened session with fresh empty state.
func TestMuxRetiredSessionNotResurrected(t *testing.T) {
	h := &echoHandlers{}
	srvConn, cliConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		ServeMuxConn(srvConn, h)
		close(done)
	}()
	defer func() { cliConn.Close(); <-done }()

	cli := newFramer(cliConn)
	if _, err := cli.writeMux(muxFrame{sid: 1, rid: 1, kind: muxCall, body: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if f, err := cli.readMuxFrame(); err != nil || f.kind != muxReplyOK {
		t.Fatalf("first call: %+v %v", f, err)
	}
	if _, err := cli.writeMux(muxFrame{sid: 1, kind: muxCloseSess}); err != nil {
		t.Fatal(err)
	}
	// The call that lost the race arrives after the close.
	if _, err := cli.writeMux(muxFrame{sid: 1, rid: 2, kind: muxCall, body: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	f, err := cli.readMuxFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != muxReplyErr || !strings.Contains(string(f.body), "closed") {
		t.Fatalf("late call after close: kind=%d body=%q, want error reply", f.kind, f.body)
	}
	if got := h.opened.Load(); got != 1 {
		t.Errorf("session opened %d times, want 1 (no resurrection)", got)
	}
}

// TestMuxConnectionLossFailsPending checks that pending and future
// calls fail once the server side disappears.
func TestMuxConnectionLossFailsPending(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	block := make(chan struct{})
	go func() {
		// Serve one request, then drop the connection without replying
		// to anything else.
		srv := newFramer(srvConn)
		f, err := srv.readMuxFrame()
		if err != nil {
			return
		}
		_, _ = srv.writeMux(muxFrame{sid: f.sid, rid: f.rid, kind: muxReplyOK, body: f.body})
		<-block
		srvConn.Close()
	}()
	c := NewMuxClient(cliConn)
	defer c.Close()
	s := c.Session()
	if _, err := s.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	callErr := make(chan error, 1)
	go func() {
		_, err := s.Call([]byte("never answered"))
		callErr <- err
	}()
	close(block)
	if err := <-callErr; err == nil {
		t.Fatal("pending call survived connection loss")
	}
	if _, err := s.Call([]byte("after loss")); err == nil {
		t.Fatal("future call survived connection loss")
	}
}

// TestMuxOverTCP is the end-to-end smoke test for MuxServer + DialMux.
func TestMuxOverTCP(t *testing.T) {
	var handlers []*echoHandlers
	var mu sync.Mutex
	srv, err := NewMuxServer("127.0.0.1:0", func() SessionHandlers {
		h := &echoHandlers{}
		mu.Lock()
		handlers = append(handlers, h)
		mu.Unlock()
		return h
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two independent connections; session IDs may collide across them
	// without interference.
	for conn := 0; conn < 2; conn++ {
		c, err := DialMux(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			s := c.Session()
			wg.Add(1)
			go func(s *MuxSession) {
				defer wg.Done()
				for k := 0; k < 10; k++ {
					msg := fmt.Sprintf("conn-%d-%d-%d", conn, s.ID(), k)
					resp, err := s.Call([]byte(msg))
					if err != nil {
						t.Errorf("%s: %v", msg, err)
						return
					}
					if string(resp[4:]) != msg {
						t.Errorf("echo mismatch %q -> %q", msg, resp[4:])
						return
					}
				}
			}(s)
		}
		wg.Wait()
		c.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(handlers) != 2 {
		t.Fatalf("server built %d per-connection handler sets, want 2", len(handlers))
	}
	for i, h := range handlers {
		if h.opened.Load() != 8 {
			t.Errorf("conn %d opened %d sessions, want 8", i, h.opened.Load())
		}
	}
}

// TestMuxServerCloseHangsUpClients is the shutdown contract: Close
// returns without waiting for a connected client to hang up, after
// the connection's sessions were closed server-side, and the client's
// next call fails with its sticky connection error.
func TestMuxServerCloseHangsUpClients(t *testing.T) {
	h := &echoHandlers{}
	srv, err := NewMuxServer("127.0.0.1:0", func() SessionHandlers { return h })
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	if _, err := s.Call([]byte("hi")); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("MuxServer.Close blocked on a connected client")
	}
	if got := h.closed.Load(); got != 1 {
		t.Errorf("Close returned with %d of 1 sessions closed server-side", got)
	}
	_, err = s.Call([]byte("after close"))
	if err == nil {
		t.Fatal("call succeeded on a connection the server hung up")
	}
	if err != c.Err() {
		t.Errorf("call failed with %v, want the sticky connection error %v", err, c.Err())
	}
}

// TestHandlerFactoryAdapter covers the stateless adapter.
func TestHandlerFactoryAdapter(t *testing.T) {
	f := HandlerFactory(func(sid uint32) Handler {
		return func(req []byte) ([]byte, error) { return req, nil }
	})
	h := f.Open(3)
	if resp, err := h([]byte("x")); err != nil || string(resp) != "x" {
		t.Fatalf("adapter handler: %q %v", resp, err)
	}
	f.Closed(3) // must not panic
}
