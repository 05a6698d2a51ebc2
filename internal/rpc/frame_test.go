package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pyxis/internal/faultconn"
	"pyxis/internal/val"
)

// TestMain runs the whole package with the ownership rule's hook on:
// every recycled buffer is overwritten the moment it is released, so a
// test that reads one afterwards fails instead of passing by luck.
func TestMain(m *testing.M) {
	ScribbleReleased(true)
	os.Exit(m.Run())
}

// bufConn is an in-memory connection end: writes append, reads consume.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error { return nil }

// readMuxFrame reads one whole mux frame, body in a fresh slice: the
// raw-protocol tests' view of the wire.
func (fr *framer) readMuxFrame() (muxFrame, error) {
	f, _, n, err := fr.readMuxHeader()
	if err != nil {
		return muxFrame{}, err
	}
	if f.body, err = fr.readBody(n, nil); err != nil {
		return muxFrame{}, err
	}
	return f, nil
}

// recConn records every Write as its own chunk: one chunk per frame is
// the one-write rule made visible.
type recConn struct {
	io.ReadWriteCloser
	mu     sync.Mutex
	chunks [][]byte
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.chunks = append(c.chunks, bytes.Clone(p))
	c.mu.Unlock()
	return c.ReadWriteCloser.Write(p)
}

func (c *recConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.chunks...)
}

// refuseAdmission refuses every session with its own text.
type refuseAdmission string

func (a refuseAdmission) AdmitSession(uint32) error { return errors.New(string(a)) }
func (refuseAdmission) SessionClosed(uint32)        {}

// worldHandlers answers every call "world".
var worldHandlers = HandlerFactory(func(uint32) Handler {
	return func([]byte) ([]byte, error) { return []byte("world"), nil }
})

// TestFrameGoldenBytes pins the wire format: a call, a reply, a shed
// and a close frame, each captured off a real client and a real demux
// loop, each one Write. A head is [len uvarint][kind][sid uvarint][rid
// uvarint]; session 0x01000007 takes four bytes of it (87 80 80 08) and
// each request ID one. The shed is an admission refusal of a session
// whose call is its request 4.
func TestFrameGoldenBytes(t *testing.T) {
	const (
		call      = "0b00878080080368656c6c6f"
		reply     = "0b018780800803776f726c64"
		shed      = "0a04878080080462757379"
		closeSess = "06038780800800"
	)
	// run makes one call on session 0x01000007 after request rid, then
	// closes it.
	run := func(cfg MuxServeConfig, rid uint32) (cli, srv [][]byte) {
		srvEnd, cliEnd := net.Pipe()
		srvRec, cliRec := &recConn{ReadWriteCloser: srvEnd}, &recConn{ReadWriteCloser: cliEnd}
		done := make(chan struct{})
		go func() {
			ServeMuxConnConfig(srvRec, worldHandlers, cfg)
			close(done)
		}()
		c := NewMuxClient(cliRec)
		s := c.newSession(0x01000007)
		s.nextRID.Store(rid)
		resp, err := s.Call([]byte("hello"))
		if cfg.Admission != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("call on a refused session: want shed, got %q %v", resp, err)
			}
		} else if err != nil || string(resp) != "world" {
			t.Fatalf("call: %q %v", resp, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		<-done
		return cliRec.written(), srvRec.written()
	}
	check := func(what string, got []byte, want string) {
		t.Helper()
		if hex.EncodeToString(got) != want {
			t.Errorf("%s frame:\n got %x\nwant %s", what, got, want)
		}
	}
	for _, tc := range []struct {
		what  string
		cfg   MuxServeConfig
		rid   uint32
		reply string
	}{
		{"reply", MuxServeConfig{}, 2, reply},
		{"shed", MuxServeConfig{Admission: refuseAdmission("busy")}, 3, shed},
	} {
		cli, srv := run(tc.cfg, tc.rid)
		if len(cli) != 2 || len(srv) != 1 {
			t.Fatalf("%s run: %d client and %d server writes, want 2 and 1 (one per frame)", tc.what, len(cli), len(srv))
		}
		if tc.rid == 2 {
			check("call", cli[0], call)
		}
		check("close", cli[1], closeSess)
		check(tc.what, srv[0], tc.reply)
	}
}

// TestFrameTornWritePoisonsClient is the bug this PR's framing fixes
// first: a frame write that fails part-way leaves the stream
// mid-frame, and the client used to un-register the one call and carry
// on — so the next call on any session wrote its header into the
// middle of the torn frame and the server dispatched a request
// assembled across the tear. Any write error must take the connection
// out of service.
func TestFrameTornWritePoisonsClient(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k, keep int
	}{
		{"first write, 6 bytes through", 3, 6},
		{"header through, body not", 3, len(FrameHead{SID: 1, RID: 3, Body: len("torn-request-body")}.Append(nil))},
		{"nothing through", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var served []string
			handlers := HandlerFactory(func(uint32) Handler {
				return func(req []byte) ([]byte, error) {
					mu.Lock()
					served = append(served, string(req))
					mu.Unlock()
					return []byte("ok"), nil
				}
			})
			srvEnd, cliEnd := net.Pipe()
			done := make(chan struct{})
			go func() {
				ServeMuxConn(srvEnd, handlers)
				close(done)
			}()
			fc := faultconn.New(cliEnd)
			fc.Fail = func(k int, p []byte) (int, bool) { return tc.keep, k == tc.k }
			c := NewMuxClient(fc)
			a, b := c.Session(), c.Session()
			for _, msg := range []string{"one", "two"} {
				if _, err := a.Call([]byte(msg)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Call([]byte("torn-request-body")); err == nil {
				t.Fatal("call whose frame write failed returned no error")
			}
			// The connection is out of service: every later call, on any
			// session, fails with the sticky error without writing.
			writes := fc.Writes()
			for _, s := range []*MuxSession{a, b} {
				_, err := s.Call([]byte("after-the-tear"))
				if err == nil || !strings.Contains(err.Error(), "mux write failed") {
					t.Fatalf("call after a torn frame: %v, want the sticky write error", err)
				}
			}
			if _, err := b.CallWithin([]byte("bounded"), nil, time.Second); !errors.Is(err, ErrPoolPoisoned) {
				t.Fatalf("bounded call after a torn frame: %v, want ErrPoolPoisoned", err)
			}
			if got := fc.Writes(); got != writes {
				t.Errorf("%d writes reached a torn stream", got-writes)
			}
			if c.Err() == nil {
				t.Error("client not poisoned")
			}
			c.Close()
			<-done
			mu.Lock()
			defer mu.Unlock()
			if len(served) != 2 || served[0] != "one" || served[1] != "two" {
				t.Errorf("server dispatched %q, want only the two whole frames", served)
			}
		})
	}
}

// TestFrameMaxFrame pins the cap and what a length prefix is trusted
// for: nothing above MaxFrame is accepted, and below it a body is
// allocated as its bytes arrive, not as the prefix announces.
func TestFrameMaxFrame(t *testing.T) {
	if MaxFrame != 1<<28 {
		t.Fatalf("MaxFrame = %d, want 1<<28", MaxFrame)
	}
	conn := &bufConn{}
	conn.Write(binary.AppendUvarint(nil, MaxFrame+1))
	if _, _, _, err := newFramer(conn).readMuxHeader(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("length prefix above MaxFrame: %v, want ErrFrameTooLarge", err)
	}
	if _, err := newFramer(&bufConn{}).writeMux(muxFrame{body: make([]byte, MaxFrame)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writing a frame above MaxFrame: %v, want ErrFrameTooLarge", err)
	}

	// 200 MiB announced, 1 KiB delivered, then EOF.
	conn = &bufConn{}
	conn.Write(FrameHead{SID: 1, RID: 1, Body: 200 << 20}.Append(nil))
	conn.Write(make([]byte, 1<<10))
	fr := newFramer(conn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, n, err := fr.readMuxHeader()
	if err != nil {
		t.Fatal(err)
	}
	_, err = fr.readBody(n, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameBufSize {
		t.Errorf("a 200 MiB length prefix with 1 KiB behind it allocated %d bytes", got)
	}
}

// TestFrameLargeBody sends bodies around and far above the buffer size
// both ways: they stream through the buffers and arrive intact. A body
// of frameBufSize-head bytes makes a frame that fills the buffer.
func TestFrameLargeBody(t *testing.T) {
	c, _ := pipeMux(t, HandlerFactory(func(uint32) Handler {
		return func(req []byte) ([]byte, error) { return req, nil }
	}))
	s := c.Session()
	head := len(FrameHead{SID: 1, RID: 1, Body: frameBufSize}.Append(nil))
	for _, n := range []int{0, 1, frameBufSize - head - 1, frameBufSize - head, frameBufSize, frameBufSize + 1, 3*frameBufSize + 17, 1 << 20} {
		req := make([]byte, n)
		for i := range req {
			req[i] = byte(i * 7)
		}
		resp, err := s.Call(req)
		if err != nil {
			t.Fatalf("%d-byte body: %v", n, err)
		}
		if !bytes.Equal(resp, req) {
			t.Fatalf("%d-byte body came back changed", n)
		}
	}
}

// TestFrameConcurrentCallsOneSession keeps two calls in flight on one
// session: the second finds the session's reply channel taken and uses
// its own, and each caller's reply is its own slice — with released
// buffers scribbled, a shared one would show.
func TestFrameConcurrentCallsOneSession(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	entered := make(chan struct{})
	c, _ := pipeMux(t, HandlerFactory(func(uint32) Handler {
		var out []byte // the handler's own reply buffer, reused per call
		return func(req []byte) ([]byte, error) {
			if string(req) == "slow" {
				once.Do(func() { close(entered) })
				<-release
			}
			out = append(out[:0], "re:"...)
			out = append(out, req...)
			return out, nil
		}
	}))
	s := c.Session()
	slow := make(chan error, 1)
	var slowResp []byte
	go func() {
		var err error
		slowResp, err = s.Call([]byte("slow"))
		slow <- err
	}()
	<-entered
	// The session worker is inside the slow call; these queue behind it
	// while the first caller still holds the session's reply channel.
	var wg sync.WaitGroup
	fast := make([][]byte, 4)
	errs := make([]error, 4)
	for i := range fast {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fast[i], errs[i] = s.Call([]byte{'f', byte('0' + i)})
		}(i)
	}
	for c.Outstanding() < 5 {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if string(slowResp) != "re:slow" {
		t.Errorf("slow call got %q", slowResp)
	}
	for i := range fast {
		if want := "re:f" + string(rune('0'+i)); errs[i] != nil || string(fast[i]) != want {
			t.Errorf("concurrent call %d got %q %v, want %q", i, fast[i], errs[i], want)
		}
	}
	// The session's channel is free and empty again.
	if resp, err := s.Call([]byte("again")); err != nil || string(resp) != "re:again" {
		t.Fatalf("call after the concurrent burst: %q %v", resp, err)
	}
}

// TestFrameDeadlineLeavesSessionUsable times a bounded call out and
// then lets its reply arrive: the straggler must not be taken for the
// reply of the session's next call.
func TestFrameDeadlineLeavesSessionUsable(t *testing.T) {
	release := make(chan struct{})
	c, _ := pipeMux(t, HandlerFactory(func(uint32) Handler {
		// Echoes every call; "stall" waits for release first.
		return func(req []byte) ([]byte, error) {
			if string(req) == "stall" {
				<-release
			}
			return req, nil
		}
	}))
	s := c.Session()
	if _, err := s.Call([]byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CallWithin([]byte("stall"), nil, 20*time.Millisecond); !errors.Is(err, ErrCallDeadline) {
		t.Fatalf("stalled call: %v, want ErrCallDeadline", err)
	}
	close(release) // the stalled call's reply is now on its way
	for i := 0; i < 3; i++ {
		if resp, err := s.CallWithin([]byte("status"), nil, time.Second); err != nil || string(resp) != "status" {
			t.Fatalf("bounded call after a timed-out one: %q %v", resp, err)
		}
	}
	if resp, err := s.Call([]byte("ping")); err != nil || string(resp) != "ping" {
		t.Fatalf("call after a timed-out one: %q %v", resp, err)
	}
}

// TestFrameScribbleCatchesRetainedRequest shows the hook doing its
// job: a handler that keeps its request past its return reads 0xFF.
func TestFrameScribbleCatchesRetainedRequest(t *testing.T) {
	var kept []byte
	c, _ := pipeMux(t, HandlerFactory(func(uint32) Handler {
		return func(req []byte) ([]byte, error) {
			kept = req // the bug: req is only valid until return
			return []byte("ok"), nil
		}
	}))
	s := c.Session()
	if _, err := s.Call([]byte("remember me")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call([]byte("x")); err != nil { // orders the read below after the first release
		t.Fatal(err)
	}
	if bytes.Contains(kept, []byte("remember")) {
		t.Fatalf("retained request still reads %q: released buffers are not scribbled", kept)
	}
}

// TestReaderValsBoundedByBytesLeft pins the decoder half of the
// no-unvalidated-length rule: a count beyond the bytes left fails
// before anything is sized by it.
func TestReaderValsBoundedByBytesLeft(t *testing.T) {
	var w Writer
	w.Str("padding padding padding padding padding padding")
	w.Uvarint(40) // 40 values announced, 3 bytes follow
	w.Byte(byte(val.Null))
	w.Byte(byte(val.Null))
	w.Byte(byte(val.Null))
	r := Reader{Buf: w.Buf}
	r.Str()
	if vs := r.Vals(); vs != nil || !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("count beyond the bytes left decoded %d values, err %v", len(vs), r.Err())
	}
	// Exactly as many nulls as bytes is legal.
	w.Reset()
	w.Vals([]val.Value{val.NullV(), val.NullV(), val.NullV()})
	r = Reader{Buf: w.Buf}
	if vs := r.Vals(); len(vs) != 3 || r.Err() != nil {
		t.Fatalf("three nulls decoded as %v, err %v", vs, r.Err())
	}
}

// TestMuxStatsCountWireBytes: a MuxClient's Stats count the bytes its
// calls put on the connection and their replies took off it, heads
// included, as the connection itself counts them. Reply bodies of 0, 1,
// 127, 128 and 40 000 bytes (each request a byte longer), and the
// bodies around the length prefix's one- and two-byte edges, run on a
// session whose ID takes two bytes until its request IDs do too. The
// session's open is taken before the snapshot: Stats leave opens out.
func TestMuxStatsCountWireBytes(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	cli := faultconn.New(cliEnd)
	done := make(chan struct{})
	go func() {
		ServeMuxConn(srvEnd, HandlerFactory(func(uint32) Handler {
			return func(req []byte) ([]byte, error) { return req[1:], nil }
		}))
		close(done)
	}()
	c := NewMuxClient(cli)
	defer func() { c.Close(); <-done }()
	c.nextSID.Store(200)
	s := c.Session()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	st0, sent0, recv0 := c.Stats(), cli.BytesWritten(), cli.BytesRead()
	sizes := []int{0, 1, 124, 125, 127, 128, 16380, 16381, 40000}
	calls := 0
	for s.nextRID.Load() < 300 {
		for _, n := range sizes {
			resp, err := s.Call(make([]byte, n+1))
			if err != nil || len(resp) != n {
				t.Fatalf("call %d: %d-byte reply, err %v; want %d bytes", calls, len(resp), err, n)
			}
			calls++
		}
	}
	st := c.Stats()
	if got, want := st.BytesSent-st0.BytesSent, cli.BytesWritten()-sent0; got != want {
		t.Errorf("Stats counted %d bytes sent, the connection %d", got, want)
	}
	if got, want := st.BytesRecv-st0.BytesRecv, cli.BytesRead()-recv0; got != want {
		t.Errorf("Stats counted %d bytes received, the connection %d", got, want)
	}
	if got := st.Calls - st0.Calls; got != int64(calls) {
		t.Errorf("Stats counted %d calls, want %d", got, calls)
	}
}

// TestFrameHeadRoundTrip writes heads at the edges of each field's
// varint and reads them back with the framer's reader, which must
// consume exactly the head's bytes and leave the body.
func TestFrameHeadRoundTrip(t *testing.T) {
	for _, h := range []FrameHead{
		{},
		{Kind: muxCall, SID: 1, RID: 1, Body: 124},
		{Kind: muxCall, SID: 1, RID: 1, Body: 125},
		{Kind: muxReplyOK, SID: 127, RID: 128, Body: 16380},
		{Kind: muxReplyShed, SID: 128, RID: 127, Body: 16381},
		{Kind: muxCloseSess, SID: math.MaxUint32, RID: math.MaxUint32},
		{Kind: 0xff, SID: math.MaxUint32, RID: 0, Body: MaxFrame - 11},
	} {
		b := h.Append(nil)
		got, n, err := ReadFrameHead(bufio.NewReader(bytes.NewReader(append(b, "body"...))))
		if err != nil || got != h || n != len(b) {
			t.Errorf("%+v read back as %+v, %d bytes, err %v; want %d bytes", h, got, n, err, len(b))
		}
	}
}

// TestFrameHeadMalformed: a head no writer produces fails the read as
// malformed or too large, and an EOF is clean only before a frame's
// first byte. A head is read only up to the length its prefix gives, so
// a short frame followed by nothing is read without waiting for more.
func TestFrameHeadMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"nothing: a clean close", nil, io.EOF},
		{"a length prefix cut short", []byte{0x80}, io.ErrUnexpectedEOF},
		{"a head cut short", []byte{0x05, muxCall, 0x81}, io.ErrUnexpectedEOF},
		{"a length prefix over five bytes", []byte{0x83, 0x80, 0x80, 0x80, 0x80, 0x00, muxCall, 1, 1}, errMalformedHead},
		{"a length over MaxFrame", binary.AppendUvarint(nil, MaxFrame+1), ErrFrameTooLarge},
		{"a five-byte length over 32 bits", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}, ErrFrameTooLarge},
		{"an empty frame", []byte{0x00}, errMalformedHead},
		{"a sid over 32 bits", []byte{0x07, muxCall, 0x80, 0x80, 0x80, 0x80, 0x10, 1}, errMalformedHead},
		{"a sid over five bytes", []byte{0x08, muxCall, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 1}, errMalformedHead},
		{"a rid over 32 bits", []byte{0x07, muxCall, 1, 0xff, 0xff, 0xff, 0xff, 0x1f}, errMalformedHead},
		{"a head past its length", []byte{0x02, muxCall, 1, 1, 'x'}, errMalformedHead},
		{"a head past its length, nothing after", []byte{0x02, muxCall, 0x81}, errMalformedHead},
	} {
		_, _, err := ReadFrameHead(bufio.NewReader(bytes.NewReader(tc.in)))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s (% x): %v, want %v", tc.name, tc.in, err, tc.want)
		}
	}
}
