package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
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

// realFrames are client frames off a live connection (the call and
// close of TestFrameGoldenBytes, then a session open and a call on a
// new session): the seeds mutation starts from.
func realFrames(tb testing.TB) [][]byte {
	var out [][]byte
	for _, h := range []string{
		"0b00878080080368656c6c6f", // call "hello", session 0x01000007, request 3
		"06038780800800",           // close session 0x01000007
		"03000101",                 // open session 1 (an empty call)
		"050001026869",             // call "hi" on session 1
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
	head := func(h FrameHead, body ...byte) []byte { return append(h.Append(nil), body...) }
	f.Add(bytes.Join(frames, nil))
	// A session queue overflowed, then closed.
	f.Add(append(bytes.Repeat(frames[0], 40), frames[1]...))
	// 256 MiB announced, one byte sent.
	f.Add(head(FrameHead{Kind: muxCall, SID: 1, RID: 1, Body: MaxFrame - 3}, 'x'))
	// A call on a retired session.
	f.Add(bytes.Join([][]byte{frames[0], frames[1], frames[0]}, nil))
	// A frame of an unknown kind drops the connection, and so does a
	// reply kind with 0x80, the old load-report flag.
	f.Add(append(bytes.Clone(frames[0]), head(FrameHead{Kind: 5, SID: 1, RID: 5, Body: 1}, 1)...))
	f.Add(append(bytes.Clone(frames[0]), head(FrameHead{Kind: 0x81, SID: 1, RID: 5, Body: 5}, []byte("world")...)...))
	// Heads no writer produces: a length prefix over five bytes, a sid
	// over 32 bits, a head that runs past its length.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01, muxCall, 1, 1})
	f.Add([]byte{0x07, muxCall, 0xff, 0xff, 0xff, 0xff, 0x1f, 1})
	f.Add([]byte{0x02, muxCall, 1, 1, 'x'})
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

// FuzzFrameHead drives the head parser alone, which runs far more
// inputs a second than FuzzMuxFrameDemux's whole demux loop. It reads
// head after head off the input, skipping each body: an accepted head
// must announce at most MaxFrame, carry the sid and rid its bytes
// encode, and read back unchanged from its own encoding; a refused one
// must be one of the typed refusals.
func FuzzFrameHead(f *testing.F) {
	frames := realFrames(f)
	for _, fr := range frames {
		f.Add(fr)
	}
	head := func(h FrameHead, body ...byte) []byte { return append(h.Append(nil), body...) }
	f.Add(bytes.Join(frames, nil))
	f.Add(head(FrameHead{Kind: muxCall, SID: 1, RID: 1, Body: MaxFrame - 3}, 'x'))
	f.Add(append(bytes.Clone(frames[0]), head(FrameHead{Kind: 5, SID: 1, RID: 5, Body: 1}, 1)...))
	f.Add(append(bytes.Clone(frames[0]), head(FrameHead{Kind: 0x81, SID: 1, RID: 5, Body: 5}, []byte("world")...)...))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01, muxCall, 1, 1})
	f.Add([]byte{0x07, muxCall, 0xff, 0xff, 0xff, 0xff, 0x1f, 1})
	f.Add([]byte{0x02, muxCall, 1, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for at := 0; ; {
			h, n, err := ReadFrameHead(br)
			if err != nil {
				if !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, errMalformedHead) &&
					!errors.Is(err, io.ErrUnexpectedEOF) && !(errors.Is(err, io.EOF) && at == len(data)) {
					t.Fatalf("head at byte %d refused with %v", at, err)
				}
				return
			}
			if h.Body < 0 || h.payload() > MaxFrame {
				t.Fatalf("head at byte %d accepted with a %d-byte body, %d-byte payload", at, h.Body, h.payload())
			}
			// The sid and rid are the uvarints after the prefix and kind.
			raw := data[at : at+n]
			_, k := binary.Uvarint(raw)
			sid, ks := binary.Uvarint(raw[k+1:])
			rid, kr := binary.Uvarint(raw[k+1+ks:])
			if sid > math.MaxUint32 || rid > math.MaxUint32 || k+1+ks+kr != n ||
				uint32(sid) != h.SID || uint32(rid) != h.RID {
				t.Fatalf("head %x read as %+v", raw, h)
			}
			enc := h.Append(nil)
			back, m, err := ReadFrameHead(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil || back != h || m != len(enc) {
				t.Fatalf("head %+v encoded as %x read back as %+v (%d bytes, %v)", h, enc, back, m, err)
			}
			skipped, _ := br.Discard(h.Body)
			if skipped < h.Body {
				return
			}
			at += n + h.Body
		}
	})
}
