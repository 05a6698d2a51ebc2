package rpc

import (
	"bytes"
	"encoding/hex"
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

// realFrames are frames off a live connection (TestFrameGoldenBytes,
// and a reply of the load-report wire this one replaced): the seeds
// mutation starts from.
func realFrames(tb testing.TB) [][]byte {
	var out [][]byte
	for _, h := range []string{
		"0e00000007000001030000000068656c6c6f", // call "hello"
		"09000000070000010000000003",           // close session
		// A reply whose kind carries 0x80, the old load-report flag, with
		// the report it announced: no kind a client sends.
		"2b0000000700000103000000811c00000000004045400000000000802840000000000000084007000000776f726c64",
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
	f.Add(append(bytes.Clone(frames[0]), frames[2]...))                              // a reply kind with 0x80, the old load-report flag, drops it too
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ServeMuxConn(sinkConn{bytes.NewReader(data)}, fuzzHandlers)
		runtime.ReadMemStats(&after)
		// Two frame buffers, a worker per session the input opens, request
		// bodies for what actually arrived: nothing near what a hostile
		// length prefix can announce.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > limit {
			t.Fatalf("%d input bytes made the demux loop allocate %d bytes (limit %d)", len(data), got, limit)
		}
	})
}
