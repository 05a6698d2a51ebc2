package rpc

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

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
			if err := fr.writeFrame(reply(f)); err != nil {
				return
			}
		}
	}()
	c := NewMuxClient(cliConn)
	t.Cleanup(func() { c.Close(); srvConn.Close() })
	return c
}

// TestMuxLoadReportCodecProperty round-trips the mux frame codec over
// randomized inputs: load report present or absent, zero and extreme
// field values, every reply kind, arbitrary payloads — then the
// rejections: a report of any length but this build's is corrupt.
func TestMuxLoadReportCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loads := []float64{0, 1e-12, 40, 100, -5, 250, math.MaxFloat64, -math.MaxFloat64}
	rates := []float64{0, 0.5, 9999, 1e18}
	depths := []uint32{0, 1, SessionQueueDepth, math.MaxUint32}

	randReport := func() LoadReport {
		return LoadReport{
			Load:         loads[rng.Intn(len(loads))],
			CPU:          loads[rng.Intn(len(loads))],
			LockWaitRate: rates[rng.Intn(len(rates))],
			QueueDepth:   depths[rng.Intn(len(depths))],
		}
	}
	kinds := []byte{muxReplyOK, muxReplyErr, muxReplyShed}

	for i := 0; i < 500; i++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		f := muxFrame{
			sid:  rng.Uint32(),
			rid:  rng.Uint32(),
			kind: kinds[rng.Intn(len(kinds))],
			body: payload,
		}
		withReport := rng.Intn(2) == 0
		var rep LoadReport
		if withReport {
			rep = randReport()
		}

		fr := newFramer(&bufConn{})
		if err := fr.writeMux(f, rep, withReport); err != nil {
			t.Fatalf("iter %d: write: %v", i, err)
		}
		got, n, err := fr.readMuxHeader()
		if err != nil {
			t.Fatalf("iter %d: read: %v", i, err)
		}
		if got.sid != f.sid || got.rid != f.rid || got.kind&^muxFlagLoad != f.kind {
			t.Fatalf("iter %d: header mismatch: got %+v want %+v", i, got, f)
		}
		if (got.kind&muxFlagLoad != 0) != withReport {
			t.Fatalf("iter %d: load flag %v, want %v", i, got.kind&muxFlagLoad != 0, withReport)
		}
		if withReport {
			var dec LoadReport
			if dec, n, err = fr.readLoadReport(n); err != nil {
				t.Fatalf("iter %d: load report: %v", i, err)
			}
			if dec != rep {
				t.Fatalf("iter %d: report mismatch: got %+v want %+v", i, dec, rep)
			}
		}
		// With or without a report the payload arrives untouched.
		body, err := fr.readBody(n, nil)
		if err != nil || !bytes.Equal(body, payload) {
			t.Fatalf("iter %d: payload mismatch: %q vs %q (%v)", i, body, payload, err)
		}
	}

	// Exact length: both ends are one build, so a length byte that says
	// anything else — four more bytes here, all present — is corruption,
	// not a longer report to skip over.
	long := appendLoadReport(nil, LoadReport{Load: 55, CPU: 10, LockWaitRate: 2, QueueDepth: 3})
	long = append(long, 0xAA, 0xBB, 0xCC, 0xDD)
	long[0] += 4
	long = append(long, []byte("payload")...)
	short := appendLoadReport(nil, LoadReport{})
	short[0]--

	// Corruption and truncation are the typed error, in the slice decoder
	// and the in-place reader alike; nothing misparses.
	for _, body := range [][]byte{long, short, {}, {loadReportLen}, appendLoadReport(nil, LoadReport{})[:10]} {
		if _, _, err := splitLoadReport(body); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("report %x: splitLoadReport error %v, want ErrShortBuffer", body, err)
		}
		conn := &bufConn{}
		conn.Write(body)
		if _, _, err := newFramer(conn).readLoadReport(len(body)); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("report %x: readLoadReport error %v, want ErrShortBuffer", body, err)
		}
	}
}

// TestMuxLoadReportDelivery runs real traffic through a demux loop
// with a LoadSource attached and checks every reply delivers the
// report to the client sink while payloads stay intact — and that a
// server configured without a source yields zero reports.
func TestMuxLoadReportDelivery(t *testing.T) {
	echo := HandlerFactory(func(sid uint32) Handler {
		return func(req []byte) ([]byte, error) { return req, nil }
	})
	var calls atomic.Int64
	src := func(queueLen int) (LoadReport, bool) {
		n := calls.Add(1)
		return LoadReport{Load: float64(n), QueueDepth: uint32(queueLen)}, true
	}

	c := pipeMuxConfig(t, echo, MuxServeConfig{Load: src})
	var mu sync.Mutex
	var got []LoadReport
	c.SetOnLoad(func(r LoadReport) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})

	s := c.Session()
	const n = 20
	for k := 0; k < n; k++ {
		resp, err := s.Call([]byte{byte(k)})
		if err != nil || len(resp) != 1 || resp[0] != byte(k) {
			t.Fatalf("call %d: %q %v", k, resp, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d reports, want %d", len(got), n)
	}
	if c.LoadReports() != n {
		t.Errorf("LoadReports() = %d, want %d", c.LoadReports(), n)
	}
	for _, r := range got {
		if r.Load <= 0 || r.Load > n {
			t.Errorf("implausible report %+v", r)
		}
	}

	// No LoadSource configured: same traffic, no flag ever set.
	plain := pipeMuxConfig(t, echo, MuxServeConfig{})
	plain.SetOnLoad(func(r LoadReport) { t.Errorf("server without a LoadSource delivered %+v", r) })
	ps := plain.Session()
	if resp, err := ps.Call([]byte("x")); err != nil || string(resp) != "x" {
		t.Fatalf("plain call: %q %v", resp, err)
	}
	if plain.LoadReports() != 0 {
		t.Errorf("server without a LoadSource counted %d reports", plain.LoadReports())
	}
}

// TestMuxTaggedSessions checks tag routing: the server observes the
// tag in the session ID, distinct tags yield distinct sessions, and
// the tag survives the round trip.
func TestMuxTaggedSessions(t *testing.T) {
	h := HandlerFactory(func(sid uint32) Handler {
		tag := SessionTag(sid)
		return func(req []byte) ([]byte, error) { return append([]byte{tag}, req...), nil }
	})
	c, _ := pipeMux(t, h)

	s0 := c.Session()
	s1 := c.TaggedSession(1)
	s7 := c.TaggedSession(7)
	if SessionTag(s0.ID()) != 0 || SessionTag(s1.ID()) != 1 || SessionTag(s7.ID()) != 7 {
		t.Fatalf("tags lost in IDs: %d %d %d", s0.ID(), s1.ID(), s7.ID())
	}
	if s0.ID() == s1.ID() || s1.ID() == s7.ID() {
		t.Fatal("tagged sessions collided")
	}
	for want, s := range map[byte]*MuxSession{0: s0, 1: s1, 7: s7} {
		resp, err := s.Call([]byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if resp[0] != want || string(resp[1:]) != "ping" {
			t.Errorf("tag %d served as %d (%q)", want, resp[0], resp)
		}
	}
}

// TestMuxShedSentinelKind speaks the raw protocol to pin the wire
// behavior: a muxReplyShed frame surfaces as ErrOverloaded.
func TestMuxShedSentinelKind(t *testing.T) {
	c := dummyLoopbackClient(t, func(f muxFrame) muxFrame {
		return muxFrame{sid: f.sid, rid: f.rid, kind: muxReplyShed, body: []byte("busy")}
	})
	_, err := c.Session().Call([]byte("hi"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed reply decoded as %v, want ErrOverloaded", err)
	}
}
