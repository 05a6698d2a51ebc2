package rpc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
)

// The first fuzz targets on bytes that arrive from a socket. The
// contract for both: malformed input yields an error or a dropped
// connection — no panic, no allocation sized by a length the peer
// merely announced.

// sinkConn feeds the demux loop a fixed byte stream and swallows its
// replies.
type sinkConn struct{ r *bytes.Reader }

func (c sinkConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c sinkConn) Write(p []byte) (int, error) { return len(p), nil }
func (c sinkConn) Close() error                { return nil }

// fuzzHandlers answers every call with its own request.
var fuzzHandlers = HandlerFactory(func(uint32) Handler {
	return func(req []byte) ([]byte, error) { return req, nil }
})

// realFrames are frames off a live connection (TestFrameGoldenBytes):
// the seeds mutation starts from.
func realFrames(tb testing.TB) [][]byte {
	var out [][]byte
	for _, h := range []string{
		"0e00000007000001030000000068656c6c6f", // call "hello"
		"09000000070000010000000003",           // close session
	} {
		b, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func FuzzMuxFrameDemux(f *testing.F) {
	frames := realFrames(f)
	for _, fr := range frames {
		f.Add(fr)
	}
	f.Add(bytes.Join(frames, nil))
	f.Add(append(bytes.Repeat(frames[0], 40), frames[1]...))                         // overflows a session queue, then closes it
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 7, 0, 0, 1, 3, 0, 0, 0, 0, 'x'})            // 256 MiB announced, one byte sent
	f.Add(bytes.Join([][]byte{frames[0], frames[1], frames[0]}, nil))                // a call on a retired session
	f.Add(append(bytes.Clone(frames[0]), 10, 0, 0, 0, 7, 0, 0, 1, 5, 0, 0, 0, 5, 1)) // a frame of an unknown kind drops the connection
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ServeMuxConnConfig(sinkConn{bytes.NewReader(data)}, fuzzHandlers, MuxServeConfig{
			Load: func(q int) (LoadReport, bool) { return LoadReport{QueueDepth: uint32(q)}, true },
		})
		runtime.ReadMemStats(&after)
		// Two frame buffers, a worker per session the input opens, request
		// bodies for what actually arrived: nothing near what a hostile
		// length prefix can announce.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("%d input bytes made the demux loop allocate %d bytes (limit %d)", len(data), got, limit)
		}
	})
}

func FuzzSplitLoadReport(f *testing.F) {
	real := appendLoadReport(nil, LoadReport{Load: 42.5, CPU: 12.25, LockWaitRate: 3, QueueDepth: 7})
	f.Add(append(bytes.Clone(real), "world"...))
	f.Add(real)
	f.Add(real[:10])
	f.Add([]byte{})
	long := append(bytes.Clone(real), 1, 2, 3, 4)
	long[0] += 4
	f.Add(append(long, "payload"...))
	f.Fuzz(func(t *testing.T, body []byte) {
		rep, rest, err := splitLoadReport(body)
		// The in-place reader must agree with the slice decoder.
		conn := &bufConn{}
		conn.Write(body)
		rep2, left, err2 := newFramer(conn).readLoadReport(len(body))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("splitLoadReport err %v, readLoadReport err %v", err, err2)
		}
		if err != nil {
			if !errors.Is(err, ErrShortBuffer) || !errors.Is(err2, ErrShortBuffer) {
				t.Fatalf("untyped rejection: splitLoadReport %v, readLoadReport %v", err, err2)
			}
			return
		}
		const n = 1 + loadReportLen
		if len(body) < n || !bytes.Equal(rest, body[n:]) || left != len(rest) {
			t.Fatalf("%d-byte body split leaving %d (in place: %d), want %d", len(body), len(rest), left, len(body)-n)
		}
		// An accepted report is exactly its re-encoding, length byte
		// included. Encodings, not structs: NaN differs from itself.
		if a, b := appendLoadReport(nil, rep), appendLoadReport(nil, rep2); !bytes.Equal(a, body[:n]) || !bytes.Equal(b, body[:n]) {
			t.Fatalf("decoded reports re-encode to %x and %x, not their bytes %x", a, b, body[:n])
		}
	})
}
