package rpc

// This file is the one place bytes meet a connection. Both ends of the
// mux wire — the client and the demux loop — read and write through a
// framer, so the rules below hold for both:
//
//   - One write per frame. A frame (FrameHead — length prefix, kind,
//     sid, rid — then the body) is assembled contiguously in the
//     framer's write buffer and leaves in one Write, under the write
//     mutex, by the goroutine that produced it. Nothing is held back:
//     no timer, no flusher goroutine. It is one contiguous Write and not a
//     vectored net.Buffers write because the connections handed to
//     this package are io.ReadWriteClosers (pipes, TLS, counting and
//     delaying wrappers), for which a vectored write degenerates to
//     one Write per buffer. A body larger than the write buffer
//     streams through it in a few Writes rather than being staged
//     whole.
//   - One buffered read. The head is parsed in place from the framer's
//     read buffer, reading no further into the frame than its length
//     prefix allows; only the body is copied out, into a slice the
//     caller chose.
//   - No allocation sized by an unvalidated length. A length prefix
//     above MaxFrame is an error, checked before anything is sized,
//     and a body larger than the read buffer is allocated as its bytes
//     arrive, so a peer that announces 256 MiB and sends ten bytes
//     costs ten bytes.
//
// A write error leaves the stream torn mid-frame; the bufio.Writer's
// error is sticky, so every later write on the framer fails too, and
// the owner must take the connection out of service.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pyxis/internal/val"
)

// MaxFrame is the largest payload (everything after the length
// prefix: kind, sid, rid and body) a frame may carry, in either
// direction.
const MaxFrame = 1 << 28

// ErrFrameTooLarge reports a frame whose payload exceeds MaxFrame:
// refused before a byte of it is written, or on reading its length
// prefix.
var ErrFrameTooLarge = errors.New("rpc: frame too large")

// errMalformedHead reports a frame head no writer produces: a length
// prefix longer than maxLenPrefix bytes, a sid or rid over 32 bits, or
// a head that runs past the length its prefix gave.
var errMalformedHead = errors.New("rpc: malformed frame head")

// frameBufSize sizes each of a framer's two buffers. Frames up to this
// size leave in one Write and arrive without growing anything; it is
// also the most a body allocation trusts a length prefix for.
const frameBufSize = 32 << 10

const (
	// maxLenPrefix is the longest length prefix: MaxFrame as a uvarint.
	maxLenPrefix = 5
	// maxID is the longest sid or rid: a 32-bit uvarint.
	maxID = 5
)

type muxFrame struct {
	sid  uint32
	rid  uint32
	kind byte
	body []byte
}

// FrameHead is what precedes a mux frame's body on the wire:
//
//	[len uvarint][kind u8][sid uvarint][rid uvarint]
//
// where len counts everything after itself, body included. The framer
// writes and reads every head through Append and ReadFrameHead; a test
// that builds or relays frames by hand uses them too.
type FrameHead struct {
	Kind     byte
	SID, RID uint32
	Body     int // the body's length in bytes
}

// payload is the frame's length as its prefix gives it.
func (h FrameHead) payload() int {
	return 1 + uvarintLen(uint64(h.SID)) + uvarintLen(uint64(h.RID)) + h.Body
}

// Append appends the head's encoding to b.
func (h FrameHead) Append(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.payload()))
	b = append(b, h.Kind)
	b = binary.AppendUvarint(b, uint64(h.SID))
	return binary.AppendUvarint(b, uint64(h.RID))
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// ReadFrameHead consumes the next frame's head from br, parsed in place
// from br's buffer, and returns it with its length in bytes; the body
// is left unread. A length prefix above MaxFrame is ErrFrameTooLarge,
// refused before anything is sized by it. An EOF before the head's
// first byte is a clean close (io.EOF); inside it, io.ErrUnexpectedEOF.
func ReadFrameHead(br *bufio.Reader) (FrameHead, int, error) {
	p, err := br.Peek(1)
	for err == nil {
		// Everything buffered, without waiting for more.
		p, _ = br.Peek(br.Buffered())
		h, n, more, herr := parseHead(p)
		if herr != nil {
			return FrameHead{}, 0, herr
		}
		if !more {
			_, _ = br.Discard(n)
			return h, n, nil
		}
		p, err = br.Peek(len(p) + 1)
	}
	if len(p) > 0 { // an EOF between frames is a clean close, inside one it is not
		err = unexpectedEOF(err)
	}
	return FrameHead{}, 0, err
}

// parseHead parses the frame head at the start of p and returns it
// with its length. more says p ends inside the head, and inside the
// frame: the head needs a byte p does not have yet.
func parseHead(p []byte) (h FrameHead, n int, more bool, err error) {
	size, i := uvarintAt(p[:min(len(p), maxLenPrefix)], 0)
	switch {
	case i < 0 && len(p) < maxLenPrefix:
		return h, 0, true, nil
	case i < 0:
		return h, 0, false, fmt.Errorf("%w: length prefix over %d bytes", errMalformedHead, maxLenPrefix)
	case size > MaxFrame:
		return h, 0, false, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, size)
	}
	// The head may not run past the frame's end: what p holds of the
	// frame is all it may read.
	end := i + int(size)
	q, whole := p, end <= len(p)
	if whole {
		q = p[:end]
	}
	at := i
	if at < len(q) {
		h.Kind = q[at]
		at++
		var k int
		var ok bool
		if h.SID, k, ok = uvarint32(q[at:]); ok {
			at += k
			if h.RID, k, ok = uvarint32(q[at:]); ok {
				at += k
				h.Body = end - at
				return h, at, false, nil
			}
		}
	}
	if whole || len(q)-at >= maxID {
		return FrameHead{}, 0, false, fmt.Errorf("%w (%d-byte frame)", errMalformedHead, size)
	}
	return FrameHead{}, 0, true, nil
}

// uvarint32 decodes a sid or rid, a uvarint of at most maxID bytes and
// 32 bits, from the start of p; ok is false when p ends first or the
// uvarint is longer or larger.
func uvarint32(p []byte) (v uint32, n int, ok bool) {
	x, n := uvarintAt(p[:min(len(p), maxID)], 0)
	if n < 0 || x > math.MaxUint32 {
		return 0, 0, false
	}
	return uint32(x), n, true
}

// framer frames one end of a connection. Reads belong to a single
// goroutine; writes may come from any, serialized by wmu.
type framer struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer // guarded by wmu; empty between frames
}

func newFramer(conn io.ReadWriteCloser) *framer {
	return &framer{
		conn: conn,
		br:   bufio.NewReaderSize(conn, frameBufSize),
		bw:   bufio.NewWriterSize(conn, frameBufSize),
	}
}

// flush completes a frame whose head was appended to
// bw.AvailableBuffer() (so writing it copies nothing). Called with wmu
// held.
func (fr *framer) flush(head, body []byte) error {
	// bufio.Writer keeps the first error and Flush reports it.
	_, _ = fr.bw.Write(head)
	_, _ = fr.bw.Write(body)
	return fr.bw.Flush()
}

// writeMux sends one mux frame and returns its length on the wire.
func (fr *framer) writeMux(f muxFrame) (int, error) {
	h := FrameHead{Kind: f.kind, SID: f.sid, RID: f.rid, Body: len(f.body)}
	if n := h.payload(); n > MaxFrame {
		return 0, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	head := h.Append(fr.bw.AvailableBuffer())
	return len(head) + len(f.body), fr.flush(head, f.body)
}

// readMuxHeader consumes the next frame's head and returns the frame,
// body still unread, with the head's length and the number of body
// bytes that follow.
func (fr *framer) readMuxHeader() (f muxFrame, head, n int, err error) {
	h, head, err := ReadFrameHead(fr.br)
	if err != nil {
		return muxFrame{}, 0, 0, err
	}
	return muxFrame{sid: h.SID, rid: h.RID, kind: h.Kind}, head, h.Body, nil
}

// readBody reads the n body bytes that follow a header. It fills buf
// when n fits its capacity and allocates otherwise: exactly n bytes up
// to frameBufSize, and beyond that only as the bytes arrive.
func (fr *framer) readBody(n int, buf []byte) ([]byte, error) {
	if n > cap(buf) && n > frameBufSize {
		buf = buf[:0]
		for len(buf) < n {
			step := min(n-len(buf), max(len(buf), frameBufSize))
			buf = slices.Grow(buf, step)
			m, err := io.ReadFull(fr.br, buf[len(buf):len(buf)+step])
			buf = buf[:len(buf)+m]
			if err != nil {
				return nil, unexpectedEOF(err)
			}
		}
		return buf, nil
	}
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

// unexpectedEOF maps an EOF inside a frame to io.ErrUnexpectedEOF: only
// an EOF between frames is a clean close.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---------------------------------------------------------------------------
// Recycled buffers and the ownership rule's test hook
// ---------------------------------------------------------------------------

// bodyPool recycles the request bodies of one server connection: the
// demux loop takes a buffer per request frame, the session worker hands
// it back once the reply is written.
type bodyPool struct {
	mu   sync.Mutex
	free [][]byte
}

// bodyPoolCap bounds the buffers a connection keeps: enough for every
// session of a busy connection to have a request in flight, no more.
const bodyPoolCap = 64

// getBody returns a buffer with room for a body of n bytes: the most
// recently released one when it is large enough, else a new one with
// headroom, so bodies of nearly equal sizes share it. A body beyond
// frameBufSize gets none (readBody grows it as its bytes arrive).
func (p *bodyPool) getBody(n int) []byte {
	if n == 0 || n > frameBufSize {
		return nil
	}
	p.mu.Lock()
	var b []byte
	if k := len(p.free) - 1; k >= 0 {
		// A buffer too small for this body is dropped, not put back:
		// the pool follows the sizes the connection actually carries.
		b, p.free = p.free[k], p.free[:k]
	}
	p.mu.Unlock()
	if cap(b) >= n {
		return b
	}
	return make([]byte, 0, bodyCap(n))
}

// bodyCap sizes a new buffer for a body of n <= frameBufSize bytes: a
// power of two from 256 up, so bodies of nearly equal sizes share it.
func bodyCap(n int) int {
	size := 256
	for size < n {
		size <<= 1
	}
	return size
}

// lent returns the empty slice a reply of n bytes is read into: into's
// array when the reply fits and into is no larger than frameBufSize, so
// a caller that lends its last reply keeps at most that much between
// calls; nil beyond frameBufSize (readBody grows it as its bytes
// arrive); a new buffer sized by bodyCap otherwise.
func lent(into []byte, n int) []byte {
	switch {
	case n <= cap(into) && cap(into) <= frameBufSize:
		return into[:0]
	case n > frameBufSize:
		return nil
	}
	return make([]byte, 0, bodyCap(n))
}

// putBody releases a request body; the caller must not touch b again.
func (p *bodyPool) putBody(b []byte) {
	if cap(b) == 0 || cap(b) > frameBufSize {
		return
	}
	Released(b)
	p.mu.Lock()
	if len(p.free) < bodyPoolCap {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// scribble is the ownership rule's test hook; see ScribbleReleased.
var scribble atomic.Bool

// Released marks buf as given up by its owner: a request body once its
// reply is written, an encode buffer once Call has returned, a
// handler's reply once it is on the wire, a reply once it is lent to
// CallInto. It does nothing in production; under ScribbleReleased it
// overwrites the buffer, so code that still holds a reference reads
// garbage in a test instead of stale-but-plausible bytes in the field.
func Released(buf []byte) {
	if scribble.Load() {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = 0xFF
		}
	}
}

// ScribbleReleased switches the Released hook on or off, and
// val.Released's with it, and returns the previous setting. Tests only:
// it is process-wide.
func ScribbleReleased(on bool) (was bool) {
	val.ScribbleReleased(on)
	return scribble.Swap(on)
}
