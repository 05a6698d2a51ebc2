// Package rpc provides the wire codec and the synchronous
// request/response transports used both by the database client (the
// JDBC analogue) and by the Pyxis runtime's control-transfer protocol.
// There are two: in-process (optionally latency-injected) for tests
// and simulation, and the mux wire (mux.go) for everything that
// crosses a connection — one connection carries any number of
// concurrent sessions, each an independent Transport. The wire carries
// calls, replies, sheds and closes; what a call means (a statement, a
// commit, a control transfer) is its payload's business.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

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

func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes reads a string's bytes in place: valid as long as Buf is.
// A decoder that only looks a string up reads it this way, for no copy.
func (r *Reader) StrBytes() []byte {
	n := int(r.U32())
	if r.err != nil || n < 0 || r.Off+n > len(r.Buf) {
		r.fail()
		return nil
	}
	b := r.Buf[r.Off : r.Off+n]
	r.Off += n
	return b
}

// Val deserializes one tagged value.
func (r *Reader) Val() val.Value {
	var v [1]val.Value
	r.ValsIn(v[:], nil)
	return v[0]
}

// ValsIn deserializes len(dst) tagged values into dst. With strs nil
// each string is a copy of its own; otherwise its bytes go onto strs
// and the string shares strs's memory, so a decoder that grew strs to
// the bytes of every string it will read (SkipVals sums them) copies
// them all in one allocation.
func (r *Reader) ValsIn(dst []val.Value, strs *strings.Builder) {
	for i := range dst {
		switch k := val.Kind(r.Byte()); k {
		case val.Null:
			dst[i] = val.Value{K: k}
		case val.Int, val.Bool, val.Obj, val.Arr, val.Table:
			dst[i] = val.Value{K: k, I: r.I64()}
		case val.Double:
			dst[i] = val.Value{K: k, F: r.F64()}
		case val.Str:
			b := r.StrBytes()
			if strs == nil {
				dst[i] = val.Value{K: k, S: string(b)}
				continue
			}
			at := strs.Len()
			strs.Write(b)
			dst[i] = val.Value{K: k, S: strs.String()[at:]}
		default:
			r.badKind(k)
			dst[i] = val.Value{}
		}
	}
}

// SkipVals reads past a length-prefixed value slice without decoding
// it and returns the bytes of its strings: the first pass of a decoder
// that copies them all at once (ValsIn). It allocates nothing, and fails
// exactly where Vals would.
func (r *Reader) SkipVals() (strBytes int) {
	n, _ := r.ValsLen()
	for ; n > 0 && r.err == nil; n-- {
		switch k := val.Kind(r.Byte()); k {
		case val.Null:
		case val.Int, val.Bool, val.Obj, val.Arr, val.Table, val.Double:
			r.U64()
		case val.Str:
			strBytes += len(r.StrBytes())
		default:
			r.badKind(k)
		}
	}
	return strBytes
}

func (r *Reader) badKind(k val.Kind) {
	if r.err == nil {
		r.err = fmt.Errorf("rpc: bad value kind %d", k)
	}
}

// Strs deserializes a count-prefixed list of strings. When prev holds
// the same strings it is returned itself and nothing is allocated: a
// decoder that refills a query result keeps the column names it had.
// A string is at least its 4-byte length, so a count beyond the bytes
// left is corrupt.
func (r *Reader) Strs(prev []string) []string {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > (len(r.Buf)-r.Off)/4 {
		r.fail()
		return nil
	}
	i := 0
	if len(prev) == n {
		for ; i < n; i++ {
			at := r.Off
			if string(r.StrBytes()) != prev[i] {
				r.Off = at
				break
			}
		}
		if i == n {
			return prev
		}
	}
	out := make([]string, n)
	copy(out, prev[:i])
	for ; i < n; i++ {
		out[i] = r.Str()
	}
	return out
}

// ValsLen reads and checks a value slice's count. A value is at least
// its kind byte, so a count beyond the bytes left is corrupt — and what
// callers size by it is bounded by bytes that actually arrived, not by
// the count's say-so. A decoder that stores the values itself reads
// the count here and then each value with Val.
func (r *Reader) ValsLen() (int, bool) {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > len(r.Buf)-r.Off {
		r.fail()
		return 0, false
	}
	return n, true
}

// Vals deserializes a length-prefixed value slice.
func (r *Reader) Vals() []val.Value {
	n, ok := r.ValsLen()
	if !ok {
		return nil
	}
	return r.appendVals(make([]val.Value, 0, n), n)
}

// AppendVals deserializes a length-prefixed value slice onto dst, for
// an owner that decodes into a slice it keeps.
func (r *Reader) AppendVals(dst []val.Value) []val.Value {
	n, ok := r.ValsLen()
	if !ok {
		return dst
	}
	return r.appendVals(slices.Grow(dst, n), n)
}

func (r *Reader) appendVals(dst []val.Value, n int) []val.Value {
	at := len(dst)
	dst = dst[:at+n]
	r.ValsIn(dst[at:], nil)
	return dst
}
