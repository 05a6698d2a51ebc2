// Package val defines the tagged value representation shared by the
// PyxJ interpreter, the Pyxis runtime, the sqldb engine and the wire
// protocol. Keeping one kernel type avoids conversion layers between
// the application language and the database.
package val

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// Kind discriminates the payload of a Value.
type Kind uint8

// Value kinds. Reference kinds (Obj, Arr, Table) store an object ID in
// the I field; the referenced storage lives in a heap keyed by OID.
const (
	Null Kind = iota
	Int
	Double
	Bool
	Str
	Obj   // object reference: I = OID
	Arr   // array reference: I = OID
	Table // query-result reference: I = OID
)

func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Double:
		return "double"
	case Bool:
		return "bool"
	case Str:
		return "string"
	case Obj:
		return "object"
	case Arr:
		return "array"
	case Table:
		return "table"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// OID identifies a heap object (object, array, or table). OIDs are
// allocated by the runtime; ranges are split between servers so both
// sides can allocate without coordination.
type OID int64

// Value is a compact tagged union. Exactly one of I, F, S is
// meaningful depending on K.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Convenience constructors.

func NullV() Value            { return Value{K: Null} }
func IntV(i int64) Value      { return Value{K: Int, I: i} }
func DoubleV(f float64) Value { return Value{K: Double, F: f} }
func BoolV(b bool) Value {
	if b {
		return Value{K: Bool, I: 1}
	}
	return Value{K: Bool}
}
func StrV(s string) Value { return Value{K: Str, S: s} }
func ObjV(o OID) Value    { return Value{K: Obj, I: int64(o)} }
func ArrV(o OID) Value    { return Value{K: Arr, I: int64(o)} }
func TableV(o OID) Value  { return Value{K: Table, I: int64(o)} }

// AsBool reports the boolean payload; callers must have checked K.
func (v Value) AsBool() bool { return v.I != 0 }

// OID returns the object ID carried by a reference value.
func (v Value) OID() OID { return OID(v.I) }

// IsRef reports whether v is a heap reference (object, array or table).
func (v Value) IsRef() bool { return v.K == Obj || v.K == Arr || v.K == Table }

// AsFloat widens Int to Double; callers use it where numeric context
// permits implicit int→double conversion.
func (v Value) AsFloat() float64 {
	if v.K == Int {
		return float64(v.I)
	}
	return v.F
}

// Equal reports deep equality for scalars and identity for references.
func (v Value) Equal(o Value) bool {
	if v.K != o.K {
		// int/double compare numerically, as in the language.
		if (v.K == Int && o.K == Double) || (v.K == Double && o.K == Int) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.K {
	case Null:
		return true
	case Int, Bool, Obj, Arr, Table:
		return v.I == o.I
	case Double:
		return v.F == o.F
	case Str:
		return v.S == o.S
	}
	return false
}

// Compare orders two values of the same (or numeric-compatible) kind:
// -1, 0, +1. Used by the database for index keys and ORDER BY.
func Compare(a, b Value) int {
	if a.K == Int && b.K == Int {
		// Exact: widening to float64 would merge ints beyond 2^53.
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	if a.K == Null || b.K == Null {
		switch {
		case a.K == Null && b.K == Null:
			return 0
		case a.K == Null:
			return -1
		default:
			return 1
		}
	}
	if (a.K == Int || a.K == Double) && (b.K == Int || b.K == Double) {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	switch a.K {
	case Str:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	case Bool:
		switch {
		case a.I == b.I:
			return 0
		case a.I < b.I:
			return -1
		default:
			return 1
		}
	}
	// Reference kinds order by OID; only meaningful for determinism.
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	default:
		return 0
	}
}

// Size is the profiler's estimate of the bytes v costs a data edge
// (interp weighs the edges the partitioner cuts with it, and
// sqldb.ResultSet.Size sums it over a table). It is a fixed-width
// model, not the wire codec's size, and nothing on the wire calls it:
// its numbers stay as they are so that every placement does.
// Reference kinds count only the reference itself — the payload is
// counted where the heap part is serialized.
func (v Value) Size() int {
	switch v.K {
	case Null:
		return 1
	case Int, Double:
		return 9
	case Bool:
		return 2
	case Str:
		return 5 + len(v.S)
	default:
		return 9
	}
}

// String renders the value the way sys.print does. Ints, doubles and
// references go through Append, the one formatting path.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "null"
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case Str:
		return v.S
	}
	var buf [MaxAppendLen]byte
	return string(Append(buf[:0], v))
}

// MaxAppendLen bounds the bytes Append adds for a value that is not a
// string: the longest renderings are a reference ("table#" and an
// int64, 26 bytes), a double in 'g' form (24, as in
// -2.2250738585072014e-308) and an int64 (20).
const MaxAppendLen = 26

// Append appends v, rendered as String renders it, to dst and returns
// the extended buffer. A double that is an integer below 1e15 in
// magnitude keeps one decimal ("2.0"); any other uses the shortest
// form that reads back exactly.
func Append(dst []byte, v Value) []byte {
	switch v.K {
	case Null:
		return append(dst, "null"...)
	case Int:
		return strconv.AppendInt(dst, v.I, 10)
	case Double:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendFloat(dst, v.F, 'f', 1, 64)
		}
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case Bool:
		if v.I != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Str:
		return append(dst, v.S...)
	case Obj:
		return strconv.AppendInt(append(dst, "obj#"...), v.I, 10)
	case Arr:
		return strconv.AppendInt(append(dst, "arr#"...), v.I, 10)
	case Table:
		return strconv.AppendInt(append(dst, "table#"...), v.I, 10)
	}
	return append(dst, '?')
}

// SizeOfRow sums the sizes of a row of values.
func SizeOfRow(row []Value) int {
	n := 0
	for _, v := range row {
		n += v.Size()
	}
	return n
}

// scribble is the recycling rule's test hook; see ScribbleReleased.
var scribble atomic.Bool

// released is what a released value reads under ScribbleReleased: a
// kind no Value has, and garbage in every field.
var released = Value{K: Kind(0xFF), I: -0x5a5a5a5a5a5a5a5b, F: math.NaN(), S: "\xffreleased\xff"}

// Released marks vs as given up by its owner for reuse: a query
// result's rows once its table is swept or its reply is on the wire.
// It zeroes vs, so kept memory pins no string; under ScribbleReleased
// it overwrites every value with garbage instead, so code that still
// holds a row reads nonsense in a test rather than a plausible stale
// value in the field.
func Released(vs []Value) {
	if scribble.Load() {
		for i := range vs {
			vs[i] = released
		}
		return
	}
	clear(vs)
}

// ScribbleReleased switches the Released hook on or off and returns the
// previous setting. Tests only: it is process-wide.
func ScribbleReleased(on bool) (was bool) { return scribble.Swap(on) }
