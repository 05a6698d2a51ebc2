package val

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if v := IntV(42); v.K != Int || v.I != 42 {
		t.Errorf("IntV: %+v", v)
	}
	if v := DoubleV(2.5); v.K != Double || v.F != 2.5 {
		t.Errorf("DoubleV: %+v", v)
	}
	if v := BoolV(true); !v.AsBool() {
		t.Error("BoolV(true) should be true")
	}
	if v := BoolV(false); v.AsBool() {
		t.Error("BoolV(false) should be false")
	}
	if v := StrV("x"); v.K != Str || v.S != "x" {
		t.Errorf("StrV: %+v", v)
	}
	if v := ObjV(7); !v.IsRef() || v.OID() != 7 {
		t.Errorf("ObjV: %+v", v)
	}
	if NullV().IsRef() {
		t.Error("null is not a ref")
	}
	if IntV(3).AsFloat() != 3.0 {
		t.Error("AsFloat should widen ints")
	}
}

func TestEqualNumericCross(t *testing.T) {
	if !IntV(3).Equal(DoubleV(3)) || !DoubleV(3).Equal(IntV(3)) {
		t.Error("3 == 3.0 across kinds")
	}
	if IntV(3).Equal(DoubleV(3.5)) {
		t.Error("3 != 3.5")
	}
	if IntV(3).Equal(StrV("3")) {
		t.Error("int != string")
	}
	if !NullV().Equal(NullV()) {
		t.Error("null == null")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntV(1), IntV(2), -1},
		{IntV(2), IntV(2), 0},
		{DoubleV(2.5), IntV(2), 1},
		{StrV("a"), StrV("b"), -1},
		{StrV("b"), StrV("b"), 0},
		{BoolV(false), BoolV(true), -1},
		{NullV(), IntV(0), -1},
		{IntV(0), NullV(), 1},
		{NullV(), NullV(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal for
// same-kind scalars.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := IntV(a), IntV(b)
		if Compare(va, vb) != -Compare(vb, va) {
			return false
		}
		return (Compare(va, vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		va, vb := StrV(a), StrV(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeAndString(t *testing.T) {
	if IntV(1).Size() != 9 || DoubleV(1).Size() != 9 || BoolV(true).Size() != 2 {
		t.Error("scalar sizes")
	}
	if StrV("abc").Size() != 8 {
		t.Errorf("string size = %d", StrV("abc").Size())
	}
	if got := IntV(-7).String(); got != "-7" {
		t.Errorf("String: %q", got)
	}
	if got := DoubleV(2).String(); got != "2.0" {
		t.Errorf("double String: %q", got)
	}
	if got := BoolV(true).String(); got != "true" {
		t.Errorf("bool String: %q", got)
	}
	if got := NullV().String(); got != "null" {
		t.Errorf("null String: %q", got)
	}
	if n := SizeOfRow([]Value{IntV(1), StrV("ab")}); n != 9+7 {
		t.Errorf("SizeOfRow = %d", n)
	}
}

// TestCompareLargeInts pins exact integer ordering: two ints that
// differ only beyond float64's 53-bit mantissa must not compare equal.
func TestCompareLargeInts(t *testing.T) {
	const big = int64(1) << 53
	cases := []struct {
		a, b int64
		want int
	}{
		{big, big + 1, -1},
		{big + 1, big, 1},
		{big + 1, big + 1, 0},
		{-big - 1, -big, -1},
		{math.MaxInt64 - 1, math.MaxInt64, -1},
		{math.MinInt64, math.MinInt64 + 1, -1},
		{math.MinInt64, math.MaxInt64, -1},
	}
	for _, c := range cases {
		if got := Compare(IntV(c.a), IntV(c.b)); got != c.want {
			t.Errorf("Compare(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Int against Double still widens.
	if got := Compare(IntV(2), DoubleV(2.5)); got != -1 {
		t.Errorf("Compare(2, 2.5) = %d, want -1", got)
	}
}
