package rpc

import (
	"errors"
	"testing"
	"testing/quick"

	"pyxis/internal/val"
)

func TestWireRoundTrip(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Bool(true)
	w.Uvarint(123456)
	w.U64(1 << 63)
	w.F64(2.718)
	w.Str("héllo")
	w.Vals([]val.Value{val.IntV(1), val.StrV("x"), val.NullV(), val.DoubleV(-1.5), val.BoolV(true), val.ObjV(9)})

	r := &Reader{Buf: w.Buf}
	if r.Byte() != 7 || !r.Bool() || r.Uvarint() != 123456 || r.U64() != 1<<63 || r.F64() != 2.718 {
		t.Fatal("scalar round trip failed")
	}
	if r.Str() != "héllo" {
		t.Fatal("string round trip failed")
	}
	vs := r.Vals()
	if len(vs) != 6 || vs[0].I != 1 || vs[1].S != "x" || vs[2].K != val.Null ||
		vs[3].F != -1.5 || !vs[4].AsBool() || vs[5].OID() != 9 {
		t.Fatalf("vals round trip: %v", vs)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Off != len(w.Buf) {
		t.Fatalf("trailing bytes: off=%d len=%d", r.Off, len(w.Buf))
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := &Reader{Buf: []byte{1, 2}}
	_ = r.U64()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("want ErrShortBuffer, got %v", r.Err())
	}
	// Errors stick.
	_ = r.Str()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatal("error should stick")
	}
}

// Property: arbitrary value slices survive the codec.
func TestValueCodecProperty(t *testing.T) {
	f := func(is []int64, fs []float64, ss []string) bool {
		var in []val.Value
		for _, i := range is {
			in = append(in, val.IntV(i))
		}
		for _, x := range fs {
			in = append(in, val.DoubleV(x))
		}
		for _, s := range ss {
			in = append(in, val.StrV(s))
		}
		var w Writer
		w.Vals(in)
		r := &Reader{Buf: w.Buf}
		out := r.Vals()
		if r.Err() != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !in[i].Equal(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInProcTransport(t *testing.T) {
	tr := NewInProc(func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	}, 0)
	resp, err := tr.Call([]byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
	st := tr.Stats()
	if st.Calls != 1 || st.BytesSent != 2 || st.BytesRecv != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call([]byte("x")); err == nil {
		t.Fatal("call after close should fail")
	}
}

// Property: values of EVERY kind — including the reference kinds Obj,
// Arr, Table and the scalars Null/Bool the narrower property above
// skips — survive the codec, alone and in slices.
func TestValueCodecAllKinds(t *testing.T) {
	gen := func(kind val.Kind, i int64, f float64, s string, b bool) val.Value {
		switch kind {
		case val.Null:
			return val.NullV()
		case val.Int:
			return val.IntV(i)
		case val.Double:
			return val.DoubleV(f)
		case val.Bool:
			return val.BoolV(b)
		case val.Str:
			return val.StrV(s)
		case val.Obj:
			return val.Value{K: val.Obj, I: i}
		case val.Arr:
			return val.Value{K: val.Arr, I: i}
		default:
			return val.Value{K: val.Table, I: i}
		}
	}
	kinds := []val.Kind{val.Null, val.Int, val.Double, val.Bool, val.Str, val.Obj, val.Arr, val.Table}
	f := func(picks []uint8, is []int64, fs []float64, ss []string, bs []bool) bool {
		var in []val.Value
		for j, p := range picks {
			var (
				iv int64
				fv float64
				sv string
				bv bool
			)
			if len(is) > 0 {
				iv = is[j%len(is)]
			}
			if len(fs) > 0 {
				fv = fs[j%len(fs)]
			}
			if len(ss) > 0 {
				sv = ss[j%len(ss)]
			}
			if len(bs) > 0 {
				bv = bs[j%len(bs)]
			}
			in = append(in, gen(kinds[int(p)%len(kinds)], iv, fv, sv, bv))
		}
		var w Writer
		w.Vals(in)
		r := &Reader{Buf: w.Buf}
		out := r.Vals()
		if r.Err() != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i].K != in[i].K || !in[i].Equal(out[i]) {
				return false
			}
		}
		return r.Off == len(w.Buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Corrupt kind bytes must error, not panic or mis-decode.
func TestValueCodecBadKind(t *testing.T) {
	r := &Reader{Buf: []byte{99}}
	_ = r.Val()
	if r.Err() == nil {
		t.Fatal("bad value kind should stick an error")
	}
}
