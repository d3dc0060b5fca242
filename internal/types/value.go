// Package types defines the runtime value model shared by the catalog,
// storage engine, planner and executor: a compact tagged union for SQL
// values plus date arithmetic helpers.
package types

import (
	"fmt"
	"strconv"
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

// Value is a compact tagged union holding one SQL value.
type Value struct {
	Kind Kind
	I    int64   // KindInt, KindDate (days), KindBool (0/1)
	F    float64 // KindFloat
	S    string  // KindString
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a decimal value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsTrue reports whether v is a true boolean (NULL and false are both not true).
func (v Value) IsTrue() bool { return v.Kind == KindBool && v.I != 0 }

// AsFloat coerces a numeric, date or boolean value to float64 for
// arithmetic, statistics, and feature extraction.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
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
		return len(v.S) + 1
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
		case a.S < b.S:
			return -1
		case a.S > b.S:
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
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'f', 2, 64)
	case KindString:
		return v.S
	case KindDate:
		return FormatDate(v.I)
	case KindBool:
		if v.I != 0 {
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
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindInt, KindDate, KindBool:
		return strconv.FormatInt(v.I, 10)
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
		return strconv.AppendFloat(buf, v.F, 'g', -1, 64)
	case KindInt, KindDate, KindBool:
		return strconv.AppendInt(buf, v.I, 10)
	case KindString:
		return append(buf, v.S...)
	default:
		return append(buf, v.String()...)
	}
}
