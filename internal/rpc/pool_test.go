package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePool builds a pool of n connections, each a pipe served by its
// own demux loop over handlers from newHandlers (mirroring a TCP
// server's per-connection factory). It returns the pool plus each
// connection's server-side pipe end, so tests can sever individual
// connections.
func pipePool(t *testing.T, n int, newHandlers func(i int) SessionHandlers, cfg MuxServeConfig) (*Pool, []net.Conn) {
	t.Helper()
	srvEnds := make([]net.Conn, 0, n)
	p, err := NewPool(n, func(i int) (io.ReadWriteCloser, error) {
		srv, cli := net.Pipe()
		srvEnds = append(srvEnds, srv)
		go ServeMuxConnConfig(srv, newHandlers(i), cfg)
		return cli, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, srvEnds
}

// connOf returns the index of the pooled connection s is pinned to.
func connOf(t *testing.T, p *Pool, s *MuxSession) int {
	t.Helper()
	for i := 0; i < len(p.conns); i++ {
		if p.Conn(i) == s.Conn() {
			return i
		}
	}
	t.Fatalf("session %d is pinned to no connection of the pool", s.ID())
	return -1
}

// connMarkHandlers serves a connection's sessions with replies
// "<conn>:<sid>:<payload>" and counts the sessions it closed, so tests
// can tell which connection's handlers served a call.
type connMarkHandlers struct {
	conn   int
	closed chan uint32
}

func (h connMarkHandlers) Open(sid uint32) Handler {
	return func(req []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("%d:%d:%s", h.conn, sid, req)), nil
	}
}
func (h connMarkHandlers) Closed(sid uint32) { h.closed <- sid }

// TestMuxPoolStripesUniqueIDs opens many sessions on an idle pool and
// checks the ID contract: IDs unique per connection, and placement
// striping across connections instead of piling onto one.
func TestMuxPoolStripesUniqueIDs(t *testing.T) {
	p, _ := pipePool(t, 4, func(int) SessionHandlers { return &echoHandlers{} }, MuxServeConfig{})

	type connSID struct {
		conn int
		sid  uint32
	}
	seen := map[connSID]bool{}
	perConn := make([]int, 4)
	for k := 0; k < 16; k++ {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		key := connSID{connOf(t, p, s), s.ID()}
		if seen[key] {
			t.Fatalf("session ID %d allocated twice on connection %d", s.ID(), key.conn)
		}
		seen[key] = true
		perConn[key.conn]++
		// The echo handler prefixes the serving session ID: the reply
		// must come from the session we think we opened.
		resp, err := s.Call([]byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if gotSID := binary.LittleEndian.Uint32(resp); gotSID != s.ID() {
			t.Errorf("call served under session %d, want %d", gotSID, s.ID())
		}
	}
	for i, n := range perConn {
		if n == 0 {
			t.Errorf("idle-pool placement never used connection %d: %v", i, perConn)
		}
	}
}

// TestMuxPoolSessionsScopedToTheirConn is the connection-scoped ID
// contract: two sessions opened on an idle 2-connection pool land on
// different connections under the same ID, each is served by its own
// connection's handlers, and closing one leaves the other serving.
func TestMuxPoolSessionsScopedToTheirConn(t *testing.T) {
	closed := make(chan uint32, 2)
	p, _ := pipePool(t, 2, func(i int) SessionHandlers { return connMarkHandlers{conn: i, closed: closed} }, MuxServeConfig{})

	a, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := connOf(t, p, a), connOf(t, p, b)
	if ca == cb {
		t.Fatalf("setup: both sessions pinned to connection %d", ca)
	}
	if a.ID() != 1 || b.ID() != 1 {
		t.Fatalf("idle pool minted IDs %d and %d, want 1 on each connection", a.ID(), b.ID())
	}
	for _, s := range []struct {
		sess *MuxSession
		conn int
	}{{a, ca}, {b, cb}} {
		resp, err := s.sess.Call([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d:1:x", s.conn); string(resp) != want {
			t.Errorf("session on connection %d served as %q, want %q", s.conn, resp, want)
		}
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case sid := <-closed:
		if sid != 1 {
			t.Fatalf("closed session %d, want 1", sid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closed session never reached its handlers")
	}
	if resp, err := b.Call([]byte("y")); err != nil || string(resp) != fmt.Sprintf("%d:1:y", cb) {
		t.Fatalf("same-ID session on the other connection broken by the close: %q %v", resp, err)
	}
	select {
	case <-closed:
		t.Fatal("closing one connection's session closed the other's")
	default:
	}
}

// TestMuxPoolPlacesAwayFromLoadedConn pins the placement signal: with
// an in-flight call holding one connection busy, every new session
// must land on a different connection.
func TestMuxPoolPlacesAwayFromLoadedConn(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	defer func() { gateOnce.Do(func() { close(gate) }) }()
	h := HandlerFactory(func(sid uint32) Handler {
		return func(req []byte) ([]byte, error) {
			if string(req) == "block" {
				<-gate
			}
			return req, nil
		}
	})
	p, _ := pipePool(t, 2, func(int) SessionHandlers { return h }, MuxServeConfig{})

	busy, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := busy.Call([]byte("block"))
		done <- err
	}()
	deadline := time.After(5 * time.Second)
	for busy.Conn().Outstanding() == 0 {
		select {
		case <-deadline:
			t.Fatal("blocked call never became outstanding")
		case <-time.After(time.Millisecond):
		}
	}

	for k := 0; k < 6; k++ {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		if s.Conn() == busy.Conn() {
			t.Fatalf("session %d placed on the loaded connection %d", s.ID(), connOf(t, p, busy))
		}
		if _, err := s.Call([]byte("hi")); err != nil {
			t.Fatal(err)
		}
	}

	gateOnce.Do(func() { close(gate) })
	if err := <-done; err != nil {
		t.Fatalf("blocked call failed: %v", err)
	}
}

// TestMuxPoolConnLossFailsOnlyPinnedSessions is the teardown contract:
// severing ONE pooled connection fails exactly its pinned sessions —
// sessions on the surviving connection keep working, and every new
// session is placed on a survivor.
func TestMuxPoolConnLossFailsOnlyPinnedSessions(t *testing.T) {
	p, srvEnds := pipePool(t, 2, func(int) SessionHandlers { return &echoHandlers{} }, MuxServeConfig{})

	// Round-robin tie-breaking spreads an idle pool, so two sessions
	// cover both connections; assert that rather than assume it.
	s0, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := connOf(t, p, s0), connOf(t, p, s1)
	if c0 == c1 {
		t.Fatalf("setup: both sessions pinned to connection %d", c0)
	}
	for _, s := range []*MuxSession{s0, s1} {
		if _, err := s.Call([]byte("warm")); err != nil {
			t.Fatal(err)
		}
	}

	// Sever s0's connection server-side (a crashed peer, not a client
	// Close): its pinned session must fail...
	srvEnds[c0].Close()
	if _, err := s0.Call([]byte("after loss")); err == nil {
		t.Fatal("session on the severed connection survived")
	}
	deadline := time.After(5 * time.Second)
	for p.Conn(c0).Err() == nil {
		select {
		case <-deadline:
			t.Fatal("severed connection never poisoned")
		case <-time.After(time.Millisecond):
		}
	}

	// ...while the surviving session keeps serving...
	if resp, err := s1.Call([]byte("still here")); err != nil || string(resp[4:]) != "still here" {
		t.Fatalf("survivor session broken: %q %v", resp, err)
	}

	// ...and every new session is placed on the survivor.
	for k := 0; k < 6; k++ {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		if got := connOf(t, p, s); got != c1 {
			t.Fatalf("new session %d placed on dead connection %d", s.ID(), got)
		}
		if _, err := s.Call([]byte("fresh")); err != nil {
			t.Fatalf("new session on survivor failed: %v", err)
		}
	}
}

// servesUnderOwnID fails t unless a call on s reaches the echo handler
// and is served under s's own session ID.
func servesUnderOwnID(t *testing.T, s *MuxSession) {
	t.Helper()
	resp, err := s.Call([]byte("hi"))
	if err != nil {
		t.Fatalf("session %#x: %v", s.ID(), err)
	}
	if got := binary.LittleEndian.Uint32(resp); got != s.ID() {
		t.Fatalf("call on session %#x served under %#x", s.ID(), got)
	}
}

// TestMuxClientSessionIDWrap: where the 32-bit counter would wrap, it
// holds instead. A connection mints each session ID once, counting up
// from 1, and after its last ID it is spent. A spent
// connection's sessions never reach the wire: Open and every call fail
// with ErrSessionIDsSpent and Close writes nothing.
func TestMuxClientSessionIDWrap(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		ServeMuxConn(srvEnd, &echoHandlers{})
		close(done)
	}()
	rec := &recConn{ReadWriteCloser: cliEnd}
	c := NewMuxClient(rec)
	t.Cleanup(func() { c.Close(); <-done })

	if s := c.Session(); s.ID() != 1 {
		t.Fatalf("first session ID %d, want 1 (0 is never minted)", s.ID())
	}

	// The last IDs: every value is minted once, the last one maxSID.
	c.nextSID.Store(maxSID - 4)
	var last []*MuxSession
	seen := map[uint32]bool{}
	for k := range 4 {
		s := c.Session()
		if s.ID() != maxSID-3+uint32(k) || seen[s.ID()] {
			t.Fatalf("session %d has ID %#x, want %#x minted once", k, s.ID(), maxSID-3+uint32(k))
		}
		seen[s.ID()] = true
		servesUnderOwnID(t, s)
		last = append(last, s)
	}

	// Spent: the next sessions fail without touching the wire, and the
	// counter holds at its cap instead of wrapping.
	wrote := len(rec.written())
	for range 2 {
		s := c.Session()
		if s.ID() != 0 {
			t.Fatalf("spent connection minted ID %#x", s.ID())
		}
		if err := s.Open(); !errors.Is(err, ErrSessionIDsSpent) {
			t.Fatalf("Open on a spent connection: %v", err)
		}
		if _, err := s.Call([]byte("hi")); !errors.Is(err, ErrSessionIDsSpent) {
			t.Fatalf("Call on a spent connection: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(rec.written()); n != wrote {
		t.Fatalf("sessions of a spent connection wrote %d frames", n-wrote)
	}
	if got := c.nextSID.Load(); got != maxSID {
		t.Fatalf("counter at %#x after the connection was spent, want it held at %#x", got, maxSID)
	}
	// Sessions minted before keep serving under their own IDs.
	for _, s := range last {
		servesUnderOwnID(t, s)
	}
}

// TestMuxPoolSessionIDWrap: a pool places new sessions only on
// connections that still have session IDs, and fails with
// ErrPoolPoisoned once none has.
func TestMuxPoolSessionIDWrap(t *testing.T) {
	p, _ := pipePool(t, 2, func(int) SessionHandlers { return &echoHandlers{} }, MuxServeConfig{})
	p.Conn(0).nextSID.Store(maxSID)
	for range 6 {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		if got := connOf(t, p, s); got != 1 {
			t.Fatalf("session %#x placed on spent connection %d", s.ID(), got)
		}
		servesUnderOwnID(t, s)
	}
	p.Conn(1).nextSID.Store(maxSID)
	if s, err := p.Session(); !errors.Is(err, ErrPoolPoisoned) {
		t.Fatalf("pool with every connection spent: session %v, err %v; want ErrPoolPoisoned", s, err)
	}
}

// TestMuxPoolAllConnsPoisoned is the poisoned-pool regression: with
// EVERY pooled connection dead, opening a session must fail with the
// typed ErrPoolPoisoned instead of silently pinning the session to
// dead conn 0 and letting its first call surface a generic transport
// error.
func TestMuxPoolAllConnsPoisoned(t *testing.T) {
	p, srvEnds := pipePool(t, 2, func(int) SessionHandlers { return &echoHandlers{} }, MuxServeConfig{})

	// Warm both connections so the severed reads are noticed.
	for k := 0; k < 2; k++ {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Call([]byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range srvEnds {
		srv.Close()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < len(p.conns); i++ {
		for p.Conn(i).Err() == nil {
			select {
			case <-deadline:
				t.Fatalf("conn %d never poisoned", i)
			case <-time.After(time.Millisecond):
			}
		}
	}

	if _, err := p.Session(); !errors.Is(err, ErrPoolPoisoned) {
		t.Fatalf("all-poisoned pool returned %v, want ErrPoolPoisoned", err)
	}
}

// TestMuxPoolSizeAndDialErrors covers construction: pools without a
// connection are rejected, and a mid-construction dial failure closes
// the connections already opened.
func TestMuxPoolSizeAndDialErrors(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewPool(n, nil); err == nil {
			t.Errorf("pool size %d accepted", n)
		}
	}

	var opened []net.Conn
	_, err := NewPool(3, func(i int) (io.ReadWriteCloser, error) {
		if i == 2 {
			return nil, fmt.Errorf("boom")
		}
		srv, cli := net.Pipe()
		go ServeMuxConn(srv, &echoHandlers{})
		opened = append(opened, cli)
		return cli, nil
	})
	if err == nil {
		t.Fatal("partial dial failure not surfaced")
	}
	// The already-dialed connections must have been closed: a write on
	// the client end fails once MuxClient.Close ran.
	for i, c := range opened {
		c.SetWriteDeadline(time.Now().Add(time.Second))
		if _, werr := c.Write([]byte("x")); werr == nil {
			t.Errorf("conn %d left open after failed pool construction", i)
		}
	}
}

// TestMuxPoolSeventeenConns checks that the pool size has no cap tied
// to session-ID bits: an idle 17-connection pool places one session on
// every connection, and each serves.
func TestMuxPoolSeventeenConns(t *testing.T) {
	const n = 17
	p, _ := pipePool(t, n, func(int) SessionHandlers { return &echoHandlers{} }, MuxServeConfig{})
	perConn := make([]int, n)
	for k := 0; k < n; k++ {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := s.Call([]byte("hi")); err != nil || string(resp[4:]) != "hi" {
			t.Fatalf("session %d: %q %v", k, resp, err)
		}
		perConn[connOf(t, p, s)]++
	}
	for i, got := range perConn {
		if got != 1 {
			t.Errorf("connection %d holds %d sessions, want 1: %v", i, got, perConn)
		}
	}
}

// TestMuxPoolOverTCP is the end-to-end smoke: DialPool against
// a real MuxServer, concurrent sessions striped over the pool.
func TestMuxPoolOverTCP(t *testing.T) {
	srv, err := NewMuxServer("127.0.0.1:0", func() SessionHandlers { return &echoHandlers{} })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := DialPool(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for i := 0; i < 12; i++ {
		s, err := p.Session()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *MuxSession) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				msg := fmt.Sprintf("s%d-k%d", s.ID(), k)
				resp, err := s.Call([]byte(msg))
				if err != nil {
					errCh <- err
					return
				}
				if string(resp[4:]) != msg {
					errCh <- fmt.Errorf("echo mismatch %q -> %q", msg, resp[4:])
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Calls != 12*10 {
		t.Errorf("pool stats counted %d calls, want %d", st.Calls, 12*10)
	}
}
