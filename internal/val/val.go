// Package val defines the tagged value representation shared by the
// PyxJ interpreter, the Pyxis runtime, the sqldb engine and the wire
// protocol. Keeping one kernel type avoids conversion layers between
// the application language and the database.
package val

import (
	"fmt"
	"math"
	"strconv"
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

// Size estimates the serialized size of v in bytes. The profiler uses
// it to weight data edges; the wire codec uses it for network
// accounting. Reference kinds count only the reference itself — the
// payload is counted where the heap part is serialized.
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

// String renders the value the way sys.print does.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "null"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Double:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.FormatFloat(v.F, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case Str:
		return v.S
	case Obj:
		return fmt.Sprintf("obj#%d", v.I)
	case Arr:
		return fmt.Sprintf("arr#%d", v.I)
	case Table:
		return fmt.Sprintf("table#%d", v.I)
	}
	return "?"
}

// SizeOfRow sums the sizes of a row of values.
func SizeOfRow(row []Value) int {
	n := 0
	for _, v := range row {
		n += v.Size()
	}
	return n
}
