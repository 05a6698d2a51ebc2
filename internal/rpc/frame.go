package rpc

// This file is the one place bytes meet a connection. Both ends of the
// mux wire — the client and the demux loop — read and write through a
// framer, so the rules below hold for both:
//
//   - One write per frame. A frame (length prefix, header, optional
//     load report, body) is assembled contiguously in the framer's
//     write buffer and leaves in one Write, under the write mutex, by
//     the goroutine that produced it. Nothing is held back: no timer,
//     no flusher goroutine. It is one contiguous Write and not a
//     vectored net.Buffers write because the connections handed to
//     this package are io.ReadWriteClosers (pipes, TLS, counting and
//     delaying wrappers), for which a vectored write degenerates to
//     one Write per buffer. A body larger than the write buffer
//     streams through it in a few Writes rather than being staged
//     whole.
//   - One buffered read. Length prefix, header and load report are
//     parsed in place from the framer's read buffer; only the body is
//     copied out, into a slice the caller chose.
//   - No allocation sized by an unvalidated length. A length prefix
//     above MaxFrame is an error, and a body larger than the read
//     buffer is allocated as its bytes arrive, so a peer that
//     announces 256 MiB and sends ten bytes costs ten bytes.
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
	"slices"
	"sync"
	"sync/atomic"
)

// MaxFrame is the largest payload (everything after the 4-byte length
// prefix) a frame may carry, in either direction.
const MaxFrame = 1 << 28

// ErrFrameTooLarge reports a frame whose payload exceeds MaxFrame:
// refused before a byte of it is written, or on reading its length
// prefix.
var ErrFrameTooLarge = errors.New("rpc: frame too large")

// frameBufSize sizes each of a framer's two buffers. Frames up to this
// size leave in one Write and arrive without growing anything; it is
// also the most a body allocation trusts a length prefix for.
const frameBufSize = 32 << 10

type muxFrame struct {
	sid  uint32
	rid  uint32
	kind byte
	body []byte
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

// writeMux sends one mux frame; with hasRep the load report precedes
// the body and the kind carries muxFlagLoad.
func (fr *framer) writeMux(f muxFrame, rep LoadReport, hasRep bool) error {
	n := muxHeaderLen + len(f.body)
	if hasRep {
		n += 1 + loadReportLen
		f.kind |= muxFlagLoad
	}
	if n > MaxFrame {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	fr.wmu.Lock()
	defer fr.wmu.Unlock()
	b := binary.LittleEndian.AppendUint32(fr.bw.AvailableBuffer(), uint32(n))
	b = binary.LittleEndian.AppendUint32(b, f.sid)
	b = binary.LittleEndian.AppendUint32(b, f.rid)
	b = append(b, f.kind)
	if hasRep {
		b = appendLoadReport(b, rep)
	}
	return fr.flush(b, f.body)
}

// readLen consumes the next frame's length prefix.
func (fr *framer) readLen() (int, error) {
	p, err := fr.br.Peek(4)
	if err != nil {
		if len(p) > 0 { // an EOF between frames is a clean close, inside one it is not
			err = unexpectedEOF(err)
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(p)
	if n > MaxFrame {
		return 0, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	_, _ = fr.br.Discard(4)
	return int(n), nil
}

// readMuxHeader consumes the next frame's length prefix and mux header
// and returns the frame, body still unread, with the number of body
// bytes that follow.
func (fr *framer) readMuxHeader() (muxFrame, int, error) {
	n, err := fr.readLen()
	if err != nil {
		return muxFrame{}, 0, err
	}
	if n < muxHeaderLen {
		return muxFrame{}, 0, fmt.Errorf("rpc: mux frame too short (%d bytes)", n)
	}
	p, err := fr.br.Peek(muxHeaderLen)
	if err != nil {
		return muxFrame{}, 0, unexpectedEOF(err)
	}
	f := muxFrame{
		sid:  binary.LittleEndian.Uint32(p),
		rid:  binary.LittleEndian.Uint32(p[4:]),
		kind: p[8],
	}
	_, _ = fr.br.Discard(muxHeaderLen)
	return f, n - muxHeaderLen, nil
}

// readLoadReport consumes the load report at the front of a body of n
// bytes and returns it with the number of body bytes left.
func (fr *framer) readLoadReport(n int) (LoadReport, int, error) {
	const size = 1 + loadReportLen
	// Never past the frame: a body shorter than a report is the
	// truncation splitLoadReport reports.
	p, err := fr.br.Peek(min(n, size))
	if err != nil {
		return LoadReport{}, 0, unexpectedEOF(err)
	}
	rep, _, err := splitLoadReport(p)
	if err != nil {
		return LoadReport{}, 0, err
	}
	_, _ = fr.br.Discard(size)
	return rep, n - size, nil
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
	size := 256
	for size < n {
		size <<= 1
	}
	return make([]byte, 0, size)
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
// handler's reply once it is on the wire. It does nothing in
// production; under ScribbleReleased it overwrites the buffer, so code
// that still holds a reference reads garbage in a test instead of
// stale-but-plausible bytes in the field.
func Released(buf []byte) {
	if scribble.Load() {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = 0xFF
		}
	}
}

// ScribbleReleased switches the Released hook on or off and returns the
// previous setting. Tests only: it is process-wide.
func ScribbleReleased(on bool) (was bool) { return scribble.Swap(on) }
