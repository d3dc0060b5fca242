// Package types defines the runtime value model shared by the catalog,
// storage engine, planner and executor: a 24-byte tagged union for SQL
// values (one pointer word, one payload word, one kind byte) plus date
// arithmetic helpers. It is the only package that imports "unsafe".
package types

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates the SQL types the engine supports. Decimals are carried
// as float64 (documented substitution: PostgreSQL's arbitrary-precision
// NUMERIC is software-emulated; our virtual clock charges a corresponding
// CPU penalty for decimal arithmetic instead).
type Kind uint8

const (
	// KindNull is the type of SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit integer.
	KindInt
	// KindFloat is a 64-bit float standing in for DECIMAL.
	KindFloat
	// KindString is a variable-length character string.
	KindString
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
	// KindBool is a boolean.
	KindBool
)

// String names the kind for EXPLAIN output and error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "decimal"
	case KindString:
		return "text"
	case KindDate:
		return "date"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a tagged union holding one SQL value in 24 bytes. n carries the
// int64 of KindInt/KindDate (days)/KindBool (0/1), the IEEE bits of
// KindFloat, and the byte length of a KindString whose first byte p points
// at; p is nil for every other kind, so the collector sees exactly one
// pointer per string cell and none elsewhere.
//
// Invariant: p is non-nil only as set by Str, together with n. The accessors
// I, F and S are kind-checked and read the zero value on any other kind, so
// a write to the exported Kind field can at worst turn a string's length
// into an integer, never fabricate a string out of payload bits.
//
// The zero-size [0]func() makes Value incomparable: ==, map keys and switch
// on a Value do not compile, because with a pointer payload they would
// compare string addresses, not bytes. Use Identical (same bits), Equal
// (SQL comparison) or KeyEqual (join/group key) instead.
type Value struct {
	_    [0]func()
	p    unsafe.Pointer
	n    uint64
	Kind Kind
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, n: uint64(v)} }

// Float returns a decimal value.
func Float(v float64) Value { return Value{Kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value {
	return Value{Kind: KindString, p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return Value{Kind: KindDate, n: uint64(days)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{Kind: KindBool, n: n}
}

// I returns the payload of a KindInt, KindDate (days) or KindBool (0/1)
// value, and 0 for every other kind.
func (v Value) I() int64 {
	if v.Kind == KindInt || v.Kind == KindDate || v.Kind == KindBool {
		return int64(v.n)
	}
	return 0
}

// F returns the payload of a KindFloat value, bit for bit, and 0 for every
// other kind.
func (v Value) F() float64 {
	if v.Kind == KindFloat {
		return math.Float64frombits(v.n)
	}
	return 0
}

// S returns the payload of a KindString value, and "" for every other kind.
func (v Value) S() string {
	if v.Kind != KindString || v.p == nil {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// Identical reports whether a and b are the same value: same kind, same
// payload bits, same string bytes. Unlike Equal it tells Int(1) from
// Float(1), +0 from -0, and finds NULL identical to NULL; it is what tests
// use where they would have written ==.
func Identical(a, b Value) bool {
	return a.Kind == b.Kind && a.n == b.n && (a.Kind != KindString || a.S() == b.S())
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsTrue reports whether v is a true boolean (NULL and false are both not true).
func (v Value) IsTrue() bool { return v.Kind == KindBool && v.n != 0 }

// AsFloat coerces a numeric, date or boolean value to float64 for
// arithmetic, statistics, and feature extraction.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return float64(v.I())
	case KindFloat:
		return v.F()
	default:
		return 0
	}
}

// Numeric reports whether v participates in arithmetic.
func (v Value) Numeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindDate
}

// Width returns the approximate storage width of the value in bytes, used
// for page accounting and the optimizer's width estimates.
func (v Value) Width() int {
	switch v.Kind {
	case KindString:
		return len(v.S()) + 1
	case KindNull:
		return 1
	default:
		return 8
	}
}

// Compare orders two non-null values of compatible kinds: -1, 0, or +1.
// Cross int/float comparisons are performed in float64. Panics on
// incomparable kinds — the planner guarantees type-compatible comparisons.
func Compare(a, b Value) int {
	if a.Kind == KindString && b.Kind == KindString {
		switch {
		case a.S() < b.S():
			return -1
		case a.S() > b.S():
			return 1
		default:
			return 0
		}
	}
	if a.Numeric() && b.Numeric() || a.Kind == KindBool && b.Kind == KindBool {
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
	panic(fmt.Sprintf("types: cannot compare %s and %s", a.Kind, b.Kind))
}

// Equal reports whether two values compare equal (NULLs are never equal).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// String renders the value for display and CSV export.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'f', 2, 64)
	case KindString:
		return v.S()
	case KindDate:
		return FormatDate(v.I())
	case KindBool:
		if v.I() != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Key renders the value exactly (unlike String, floats keep every digit):
// the spelling ANALYZE uses to name most-common values and to feed its
// sketches. It is not an equality key — Int(1000000) and Float(1e6) render
// differently, Str("NULL") and NULL the same; equality structures use
// KeyEqual and HashKey.
func (v Value) Key() string {
	switch v.Kind {
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindInt, KindDate, KindBool:
		return strconv.FormatInt(v.I(), 10)
	default:
		return v.String()
	}
}

// AppendKey appends exactly the bytes of Key() to buf and returns the
// extended slice, so a per-row caller with a reused buffer allocates
// nothing.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.Kind {
	case KindFloat:
		return strconv.AppendFloat(buf, v.F(), 'g', -1, 64)
	case KindInt, KindDate, KindBool:
		return strconv.AppendInt(buf, v.I(), 10)
	case KindString:
		return append(buf, v.S()...)
	default:
		return append(buf, v.String()...)
	}
}
