// Package rpc provides the wire codec and the synchronous
// request/response transports used both by the database client (the
// JDBC analogue) and by the Pyxis runtime's control-transfer protocol.
// There are two: in-process (optionally latency-injected) for tests
// and simulation, and the mux wire (mux.go) for everything that
// crosses a connection — one connection carries any number of
// concurrent sessions, each an independent Transport. The wire carries
// calls, replies, sheds and closes; what a call means (a statement, a
// 2PC vote, a control transfer) is its payload's business.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pyxis/internal/val"
)

// ErrShortBuffer reports a truncated or corrupt message.
var ErrShortBuffer = errors.New("rpc: short buffer")

// Writer serializes primitive values into a growing byte buffer. A
// single-threaded owner that encodes one message at a time keeps one
// Writer and Resets it per message, so the buffer grows to the largest
// message once instead of from nil every time.
type Writer struct {
	Buf []byte
}

// Reset empties the writer and keeps its buffer.
func (w *Writer) Reset() { w.Buf = w.Buf[:0] }

func (w *Writer) Byte(b byte) { w.Buf = append(w.Buf, b) }
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

func (w *Writer) U32(v uint32) {
	w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v)
}

func (w *Writer) U64(v uint64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v)
}

func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint appends v LEB128-encoded — the compact form for the small
// integers (statement ids, method indices, slot counts) on the hot
// wire.
func (w *Writer) Uvarint(v uint64) {
	w.Buf = binary.AppendUvarint(w.Buf, v)
}

func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Val serializes one tagged value.
func (w *Writer) Val(v val.Value) {
	w.Byte(byte(v.K))
	switch v.K {
	case val.Null:
	case val.Int, val.Bool, val.Obj, val.Arr, val.Table:
		w.I64(v.I)
	case val.Double:
		w.F64(v.F)
	case val.Str:
		w.Str(v.S)
	}
}

// Vals serializes a length-prefixed value slice.
func (w *Writer) Vals(vs []val.Value) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.Val(v)
	}
}

// Reader deserializes from a byte buffer. The first decode error
// sticks; check Err after reading.
type Reader struct {
	Buf []byte
	Off int
	err error
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShortBuffer
	}
}

func (r *Reader) Byte() byte {
	if r.err != nil || r.Off >= len(r.Buf) {
		r.fail()
		return 0
	}
	b := r.Buf[r.Off]
	r.Off++
	return b
}

func (r *Reader) Bool() bool { return r.Byte() != 0 }

func (r *Reader) U32() uint32 {
	if r.err != nil || r.Off+4 > len(r.Buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.Buf[r.Off:])
	r.Off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.err != nil || r.Off+8 > len(r.Buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.Buf[r.Off:])
	r.Off += 8
	return v
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint decodes a LEB128 unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf[r.Off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.Off += n
	return v
}

func (r *Reader) Str() string {
	n := int(r.U32())
	if r.err != nil || n < 0 || r.Off+n > len(r.Buf) {
		r.fail()
		return ""
	}
	s := string(r.Buf[r.Off : r.Off+n])
	r.Off += n
	return s
}

// Val deserializes one tagged value.
func (r *Reader) Val() val.Value {
	k := val.Kind(r.Byte())
	switch k {
	case val.Null:
		return val.NullV()
	case val.Int, val.Bool, val.Obj, val.Arr, val.Table:
		return val.Value{K: k, I: r.I64()}
	case val.Double:
		return val.Value{K: k, F: r.F64()}
	case val.Str:
		return val.Value{K: k, S: r.Str()}
	}
	if r.err == nil {
		r.err = fmt.Errorf("rpc: bad value kind %d", k)
	}
	return val.Value{}
}

// valsLen reads and checks a value slice's count. A value is at least
// its kind byte, so a count beyond the bytes left is corrupt — and what
// callers size by it is bounded by bytes that actually arrived, not by
// the count's say-so.
func (r *Reader) valsLen() (int, bool) {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > len(r.Buf)-r.Off {
		r.fail()
		return 0, false
	}
	return n, true
}

// Vals deserializes a length-prefixed value slice.
func (r *Reader) Vals() []val.Value {
	n, ok := r.valsLen()
	if !ok {
		return nil
	}
	return r.appendVals(make([]val.Value, 0, n), n)
}

// AppendVals deserializes a length-prefixed value slice onto dst, for
// an owner that decodes into a slice it keeps.
func (r *Reader) AppendVals(dst []val.Value) []val.Value {
	n, ok := r.valsLen()
	if !ok {
		return dst
	}
	return r.appendVals(slices.Grow(dst, n), n)
}

func (r *Reader) appendVals(dst []val.Value, n int) []val.Value {
	for i := 0; i < n; i++ {
		dst = append(dst, r.Val())
	}
	return dst
}

// ---------------------------------------------------------------------------
// Load reports (paper §6.3, made per-reply)
// ---------------------------------------------------------------------------

// LoadReport is the compact database-server load sample piggy-backed
// on multiplexed reply frames. The paper's §6.3 switcher receives a
// load message every 10 seconds over a side channel; here every reply
// already travelling to the application server carries the sample, so
// the app-side EWMA tracks the DB server with zero extra round trips.
// Load is the blended saturation signal; the components it blends are
// carried alongside so clients can apply their own policy.
type LoadReport struct {
	// Load is the blended saturation signal, percent (0-100).
	Load float64
	// CPU is the run-queue/CPU proxy component, percent: runnable
	// goroutines relative to the server's saturation point.
	CPU float64
	// LockWaitRate is the engine-wide lock-wait rate, waits/second
	// (the hot-row saturation signal CPU load misses).
	LockWaitRate float64
	// QueueDepth is the replying session's mux queue depth at reply
	// time (the per-session backpressure signal).
	QueueDepth uint32
}

// loadReportLen is the wire size of a report's fields. A report
// travels behind a length byte that must say exactly this: both ends
// of a connection are the same build.
const loadReportLen = 8 + 8 + 8 + 4

// appendLoadReport appends the length-prefixed report to dst.
func appendLoadReport(dst []byte, rep LoadReport) []byte {
	w := Writer{Buf: dst}
	w.Byte(loadReportLen)
	w.F64(rep.Load)
	w.F64(rep.CPU)
	w.F64(rep.LockWaitRate)
	w.U32(rep.QueueDepth)
	return w.Buf
}

// splitLoadReport decodes a length-prefixed report from the front of
// body and returns it with the remaining payload.
func splitLoadReport(body []byte) (LoadReport, []byte, error) {
	if len(body) < 1 {
		return LoadReport{}, nil, fmt.Errorf("rpc: load report missing length: %w", ErrShortBuffer)
	}
	n := int(body[0])
	if n != loadReportLen || len(body)-1 < n {
		return LoadReport{}, nil, fmt.Errorf("rpc: load report truncated (length byte %d, want %d, in %d bytes): %w", n, loadReportLen, len(body)-1, ErrShortBuffer)
	}
	r := Reader{Buf: body[1 : 1+n]} // exactly the fields: no read below can fall short
	rep := LoadReport{
		Load:         r.F64(),
		CPU:          r.F64(),
		LockWaitRate: r.F64(),
		QueueDepth:   r.U32(),
	}
	return rep, body[1+n:], nil
}
