package rpc

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"pyxis/internal/val"
)

// codecEdges is one value of every kind at the edges of its encoding,
// with the bytes it takes on the wire: a kind byte and a zigzag varint
// for the integer kinds, 8 bytes for a double, a uvarint length and the
// bytes for a string.
var codecEdges = []struct {
	v    val.Value
	size int
}{
	{val.NullV(), 1},
	{val.IntV(0), 2},
	{val.IntV(1), 2},
	{val.IntV(-1), 2},
	{val.IntV(63), 2},
	{val.IntV(-63), 2},
	{val.IntV(64), 3},
	{val.IntV(-64), 2},
	{val.IntV(-65), 3},
	{val.IntV(math.MinInt64), 11},
	{val.IntV(math.MaxInt64), 11},
	{val.BoolV(false), 2},
	{val.BoolV(true), 2},
	{val.ObjV(1), 2},
	{val.Value{K: val.Obj, I: 1 << 40}, 7},
	{val.Value{K: val.Arr, I: 70}, 3},
	{val.Value{K: val.Table, I: 5}, 2},
	{val.DoubleV(math.NaN()), 9},
	{val.DoubleV(math.Float64frombits(0x7ff8_0000_dead_beef)), 9}, // a NaN with a payload
	{val.DoubleV(0), 9},
	{val.DoubleV(math.Copysign(0, -1)), 9},
	{val.DoubleV(math.Inf(1)), 9},
	{val.DoubleV(math.Inf(-1)), 9},
	{val.StrV(""), 2},
	{val.StrV(strings.Repeat("x", 127)), 129},
	{val.StrV(strings.Repeat("y", 300)), 303},
}

// sameValue compares two values bit for bit: a double by its bits, so
// NaN payloads and the sign of zero count.
func sameValue(a, b val.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case val.Double:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case val.Str:
		return a.S == b.S
	case val.Null:
		return true
	}
	return a.I == b.I
}

// TestValCodecEdges round-trips every kind at its edges, alone and all
// in one slice, and pins each value's size on the wire. SkipVals must
// stop where Vals does and count the same string bytes.
func TestValCodecEdges(t *testing.T) {
	var all []val.Value
	strBytes := 0
	for _, tc := range codecEdges {
		var w Writer
		w.Val(tc.v)
		if len(w.Buf) != tc.size {
			t.Errorf("%v (kind %d): %d bytes on the wire, want %d", tc.v, tc.v.K, len(w.Buf), tc.size)
		}
		r := Reader{Buf: w.Buf}
		if got := r.Val(); r.Err() != nil || !sameValue(got, tc.v) || r.Off != len(w.Buf) {
			t.Errorf("%v (kind %d) came back as %v at offset %d, err %v", tc.v, tc.v.K, got, r.Off, r.Err())
		}
		all = append(all, tc.v)
		strBytes += len(tc.v.S)
	}
	var w Writer
	w.Vals(all)
	r := Reader{Buf: w.Buf}
	got := r.Vals()
	if r.Err() != nil || len(got) != len(all) || r.Off != len(w.Buf) {
		t.Fatalf("slice of %d edges: %d values at offset %d of %d, err %v", len(all), len(got), r.Off, len(w.Buf), r.Err())
	}
	for i := range all {
		if !sameValue(got[i], all[i]) {
			t.Errorf("edge %d: %v came back as %v", i, all[i], got[i])
		}
	}
	skip := Reader{Buf: w.Buf}
	if n := skip.SkipVals(); skip.Err() != nil || skip.Off != len(w.Buf) || n != strBytes {
		t.Errorf("SkipVals: %d string bytes at offset %d, err %v; want %d at %d", n, skip.Off, skip.Err(), strBytes, len(w.Buf))
	}
}

// TestUvarintRefusesOverflow: a varint longer than ten bytes, or whose
// tenth byte carries bits past the 64th, is corrupt, in a count and in
// a value alike.
func TestUvarintRefusesOverflow(t *testing.T) {
	for _, in := range [][]byte{
		bytes.Repeat([]byte{0xff}, 11),
		append(bytes.Repeat([]byte{0xff}, 9), 2),
		{0x80, 0x80},
	} {
		r := Reader{Buf: in}
		if r.Uvarint(); !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("uvarint % x: err %v, want ErrShortBuffer", in, r.Err())
		}
		v := append([]byte{1, byte(val.Int)}, in...)
		r = Reader{Buf: v}
		if vs := r.Vals(); !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("int % x decoded as %v, err %v", in, vs, r.Err())
		}
		r = Reader{Buf: v}
		if r.SkipVals(); !errors.Is(r.Err(), ErrShortBuffer) {
			t.Errorf("SkipVals over int % x: err %v", in, r.Err())
		}
	}
}

// FuzzValCodec decodes arbitrary bytes as a value slice, a value and a
// string list. No input may panic or make a decoder size anything past
// the bytes present; SkipVals must fail where Vals fails and stop where
// it stops; and whatever decodes must encode and decode to itself.
func FuzzValCodec(f *testing.F) {
	var all []val.Value
	for _, tc := range codecEdges {
		var w Writer
		w.Val(tc.v)
		f.Add(w.Buf)
		all = append(all, tc.v)
	}
	var w Writer
	w.Vals(all)
	f.Add(w.Buf)
	w.Reset()
	w.Uvarint(3)
	w.Str("a")
	w.Str("bc")
	w.Str("")
	f.Add(w.Buf)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(val.Null)}) // 4G values announced, one sent
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			r, one, strs Reader
			vs           []val.Value
			v            val.Value
			names        []string
		)
		decode := func() {
			r, one, strs = Reader{Buf: in}, Reader{Buf: in}, Reader{Buf: in}
			vs, v, names = r.Vals(), one.Val(), strs.Strs(nil)
		}
		decode() // the first run pays the error path's one-time costs
		// The counter is the process's: the least of three runs is the
		// decoders' own, whatever a goroutine another test left does.
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode()
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// A value costs at least one input byte, a string at least one:
		// what they allocate is bounded by the bytes present.
		if limit := uint64(4096 + 64*len(in)); got > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(in), got, limit)
		}

		skip := Reader{Buf: in}
		skip.SkipVals()
		if (skip.Err() == nil) != (r.Err() == nil) || r.Err() == nil && skip.Off != r.Off {
			t.Fatalf("SkipVals stopped at %d (err %v), Vals at %d (err %v)", skip.Off, skip.Err(), r.Off, r.Err())
		}
		if r.Err() == nil {
			checkReencode(t, vs)
		}
		if one.Err() == nil {
			checkReencode(t, []val.Value{v})
		}
		if strs.Err() == nil {
			var w Writer
			w.Uvarint(uint64(len(names)))
			for _, s := range names {
				w.Str(s)
			}
			back := Reader{Buf: w.Buf}
			if got := back.Strs(nil); back.Err() != nil || len(got) != len(names) || back.Off != len(w.Buf) {
				t.Fatalf("strings %q re-decoded as %q, err %v", names, got, back.Err())
			}
		}
	})
}

// checkReencode encodes vs and decodes it again: it must come back
// bit for bit.
func checkReencode(t *testing.T, vs []val.Value) {
	t.Helper()
	var w Writer
	w.Vals(vs)
	r := Reader{Buf: w.Buf}
	got := r.Vals()
	if r.Err() != nil || len(got) != len(vs) || r.Off != len(w.Buf) {
		t.Fatalf("%v re-decoded as %v at %d of %d, err %v", vs, got, r.Off, len(w.Buf), r.Err())
	}
	for i := range vs {
		if !sameValue(got[i], vs[i]) {
			t.Fatalf("value %d: %v re-decoded as %v", i, vs[i], got[i])
		}
	}
}
