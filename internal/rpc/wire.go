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

// The value codec. A value is its kind byte and then: nothing for a
// null; a zigzag varint for an int, bool or reference (object, array,
// table); the 8 bytes of its bits for a double; a uvarint length and
// the bytes for a string. Counts are uvarints. The small ints a
// statement's arguments and keys mostly are take one byte after the
// kind, and every value, string and count at least one byte, which is
// what the decoders hold an announced count to.

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

func (w *Writer) U64(v uint64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v)
}

func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint appends v LEB128-encoded: the form of every length, count,
// statement id, method index and slot count on the wire.
func (w *Writer) Uvarint(v uint64) {
	w.Buf = binary.AppendUvarint(w.Buf, v)
}

func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Val serializes one tagged value.
func (w *Writer) Val(v val.Value) {
	w.Byte(byte(v.K))
	switch v.K {
	case val.Null:
	case val.Int, val.Bool, val.Obj, val.Arr, val.Table:
		w.Buf = binary.AppendVarint(w.Buf, v.I)
	case val.Double:
		w.F64(v.F)
	case val.Str:
		w.Str(v.S)
	}
}

// Vals serializes a count-prefixed value slice.
func (w *Writer) Vals(vs []val.Value) {
	w.Uvarint(uint64(len(vs)))
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

func (r *Reader) U64() uint64 {
	if r.err != nil || r.Off+8 > len(r.Buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.Buf[r.Off:])
	r.Off += 8
	return v
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// uvarintAt decodes the uvarint at buf[off:] and returns it with the
// offset just past it; the offset is -1 when the uvarint is cut short,
// longer than binary.MaxVarintLen64 bytes or over 64 bits. It is the
// package's one varint decoder, small enough to inline into the value
// loops.
func uvarintAt(buf []byte, off int) (uint64, int) {
	var x uint64
	for s := uint(0); off < len(buf); s += 7 {
		b := buf[off]
		off++
		if b < 0x80 {
			if s == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<s, off
		}
		if s == 63 {
			break
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// varintEnd returns the offset just past the varint at buf[off:], or -1
// where uvarintAt fails: SkipVals's way past an int it does not decode.
func varintEnd(buf []byte, off int) int {
	for i := 0; i < binary.MaxVarintLen64 && off < len(buf); i++ {
		b := buf[off]
		off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return -1
			}
			return off
		}
	}
	return -1
}

// Uvarint decodes a LEB128 unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, off := uvarintAt(r.Buf, r.Off)
	if off < 0 {
		r.fail()
		return 0
	}
	r.Off = off
	return v
}

func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes reads a string's bytes in place: valid as long as Buf is.
// A decoder that only looks a string up reads it this way, for no copy.
func (r *Reader) StrBytes() []byte {
	n := r.Uvarint()
	if r.err != nil || n > uint64(len(r.Buf)-r.Off) {
		r.fail()
		return nil
	}
	b := r.Buf[r.Off : r.Off+int(n)]
	r.Off += int(n)
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
// them all in one allocation. It decodes over a local copy of the
// buffer and offset, a one-byte varint without a call. From the first
// error on, dst's values are null.
func (r *Reader) ValsIn(dst []val.Value, strs *strings.Builder) {
	if r.err != nil {
		clear(dst)
		return
	}
	buf, off := r.Buf, r.Off
	for i := range dst {
		if off >= len(buf) {
			r.fail()
			clear(dst[i:])
			return
		}
		k := val.Kind(buf[off])
		off++
		switch k {
		case val.Null:
			dst[i] = val.Value{}
		case val.Int, val.Bool, val.Obj, val.Arr, val.Table:
			var x uint64
			if off < len(buf) && buf[off] < 0x80 {
				x = uint64(buf[off])
				off++
			} else if x, off = uvarintAt(buf, off); off < 0 {
				r.fail()
				clear(dst[i:])
				return
			}
			dst[i] = val.Value{K: k, I: int64(x>>1) ^ -int64(x&1)}
		case val.Double:
			if len(buf)-off < 8 {
				r.fail()
				clear(dst[i:])
				return
			}
			dst[i] = val.Value{K: k, F: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))}
			off += 8
		case val.Str:
			var n uint64
			if off < len(buf) && buf[off] < 0x80 {
				n = uint64(buf[off])
				off++
			} else if n, off = uvarintAt(buf, off); off < 0 {
				r.fail()
				clear(dst[i:])
				return
			}
			if n > uint64(len(buf)-off) {
				r.fail()
				clear(dst[i:])
				return
			}
			b := buf[off : off+int(n)]
			off += int(n)
			if strs == nil {
				dst[i] = val.Value{K: k, S: string(b)}
				continue
			}
			at := strs.Len()
			strs.Write(b)
			dst[i] = val.Value{K: k, S: strs.String()[at:]}
		default:
			r.Off = off
			r.badKind(k)
			clear(dst[i:])
			return
		}
	}
	r.Off = off
}

// SkipVals reads past a count-prefixed value slice without decoding
// it and returns the bytes of its strings: the first pass of a decoder
// that copies them all at once (ValsIn). It allocates nothing, skips an
// int by finding its varint's last byte, and fails exactly where Vals
// would.
func (r *Reader) SkipVals() (strBytes int) {
	n, ok := r.ValsLen()
	if !ok {
		return 0
	}
	buf, off := r.Buf, r.Off
	for ; n > 0; n-- {
		if off >= len(buf) {
			r.fail()
			return strBytes
		}
		k := val.Kind(buf[off])
		off++
		switch k {
		case val.Null:
		case val.Int, val.Bool, val.Obj, val.Arr, val.Table:
			if off < len(buf) && buf[off] < 0x80 {
				off++
			} else if off = varintEnd(buf, off); off < 0 {
				r.fail()
				return strBytes
			}
		case val.Double:
			if len(buf)-off < 8 {
				r.fail()
				return strBytes
			}
			off += 8
		case val.Str:
			var m uint64
			if off < len(buf) && buf[off] < 0x80 {
				m = uint64(buf[off])
				off++
			} else if m, off = uvarintAt(buf, off); off < 0 {
				r.fail()
				return strBytes
			}
			if m > uint64(len(buf)-off) {
				r.fail()
				return strBytes
			}
			off += int(m)
			strBytes += int(m)
		default:
			r.Off = off
			r.badKind(k)
			return strBytes
		}
	}
	r.Off = off
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
// A string is at least its 1-byte length, so a count beyond the bytes
// left is corrupt.
func (r *Reader) Strs(prev []string) []string {
	n := r.Uvarint()
	if r.err != nil || n > uint64(len(r.Buf)-r.Off) {
		r.fail()
		return nil
	}
	i := 0
	if len(prev) == int(n) {
		for ; i < len(prev); i++ {
			at := r.Off
			if string(r.StrBytes()) != prev[i] {
				r.Off = at
				break
			}
		}
		if i == len(prev) {
			return prev
		}
	}
	out := make([]string, n)
	copy(out, prev[:i])
	for ; i < len(out); i++ {
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
	n := r.Uvarint()
	if r.err != nil || n > uint64(len(r.Buf)-r.Off) {
		r.fail()
		return 0, false
	}
	return int(n), true
}

// Vals deserializes a count-prefixed value slice.
func (r *Reader) Vals() []val.Value {
	n, ok := r.ValsLen()
	if !ok {
		return nil
	}
	return r.appendVals(make([]val.Value, 0, n), n)
}

// AppendVals deserializes a count-prefixed value slice onto dst, for
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
