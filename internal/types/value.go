// Package types defines the runtime value model shared by the catalog,
// storage engine, planner and executor: a 16-byte tagged union for SQL
// values (one pointer word that also carries the kind, one payload word),
// the pointer-free block a table's rows are packed into, and date
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

// Value is a tagged union holding one SQL value in 16 bytes. n carries the
// int64 of KindInt/KindDate (days)/KindBool (0/1), the IEEE bits of
// KindFloat, and the byte length of a KindString. p carries the kind:
//
//   - nil is NULL, so the zero Value is NULL;
//   - &kindTags[k] is kind k: every int, float, date and bool, and the
//     empty string;
//   - any other pointer is the first byte of a non-empty string.
//
// The collector therefore sees one pointer per cell, into a string's
// bytes or at a global it never frees. Every field is private: a Value
// comes only from a constructor or PackRows, so its kind and payload
// always agree, and outside this file Kind() is the one place the kind is
// decoded.
//
// The zero-size [0]func() makes Value incomparable: ==, map keys and switch
// on a Value do not compile, because with a pointer payload they would
// compare string addresses, not bytes. Use Identical (same bits), Equal
// (SQL comparison) or KeyEqual (join/group key) instead.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// kindTags gives each non-NULL kind an address of its own for Value.p to
// point at. A non-empty string's bytes are never inside it.
var kindTags [KindBool + 1]byte

// tagged returns the value of kind k with payload word n.
func tagged(k Kind, n uint64) Value { return Value{p: unsafe.Pointer(&kindTags[k]), n: n} }

// Kind returns the SQL type of v.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)); d < uintptr(len(kindTags)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindNull
	}
	return KindString
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return tagged(KindInt, uint64(v)) }

// Float returns a decimal value.
func Float(v float64) Value { return tagged(KindFloat, math.Float64bits(v)) }

// Str returns a string value. Every empty string, whatever its data
// pointer (unsafe.StringData("") may be nil, which would read as NULL),
// gets the string tag.
func Str(v string) Value {
	if len(v) == 0 {
		return tagged(KindString, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return tagged(KindDate, uint64(days)) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return tagged(KindBool, n)
}

// I returns the payload of a KindInt, KindDate (days) or KindBool (0/1)
// value, and 0 for every other kind.
func (v Value) I() int64 {
	if k := v.Kind(); k == KindInt || k == KindDate || k == KindBool {
		return int64(v.n)
	}
	return 0
}

// F returns the payload of a KindFloat value, bit for bit, and 0 for every
// other kind.
func (v Value) F() float64 {
	if v.p == unsafe.Pointer(&kindTags[KindFloat]) {
		return math.Float64frombits(v.n)
	}
	return 0
}

// S returns the payload of a KindString value, and "" for every other kind.
func (v Value) S() string {
	if v.Kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// Identical reports whether a and b are the same value: same kind, same
// payload bits, same string bytes. Unlike Equal it tells Int(1) from
// Float(1), +0 from -0, and finds NULL identical to NULL; it is what tests
// use where they would have written ==.
func Identical(a, b Value) bool {
	if a.n != b.n {
		return false
	}
	// One pointer word is one kind and, for a string, the same bytes; two
	// different words agree only as strings with equal bytes.
	return a.p == b.p || a.Kind() == KindString && b.Kind() == KindString && a.S() == b.S()
}

// PackRows copies rows into one allocation the collector never scans: a
// block of uint64 words holding every Value, row after row, then the bytes
// of each distinct non-empty string, stored once. The copy has the same
// width and row count, and every packed value is Identical to its input.
//
// Invariant: every pointer inside the block points into the block itself
// or at a kind tag, a global that is never freed. Nothing the block
// references can then be freed while any part of it is reachable, and a
// Value, row or S() string copied out of it keeps the whole block alive
// through its interior pointer. The block is never written after PackRows
// returns: a pointer stored into it later would be one the collector does
// not see.
func PackRows(rows Rows) Rows {
	if len(rows.vals) == 0 {
		return Rows{w: rows.w, n: rows.n}
	}
	// First pass: give each distinct non-empty string its offset among the
	// string bytes; offs holds the offset of every non-empty string value,
	// in order, for the second pass.
	at := make(map[string]int)
	var uniq []string
	var offs []int
	size := 0
	for _, v := range rows.vals {
		s := v.S()
		if s == "" {
			continue
		}
		off, ok := at[s]
		if !ok {
			off = size
			at[s] = off
			uniq = append(uniq, s)
			size += len(s)
		}
		offs = append(offs, off)
	}
	const word = int(unsafe.Sizeof(uint64(0)))
	valWords := len(rows.vals) * int(unsafe.Sizeof(Value{})) / word
	block := make([]uint64, valWords+(size+word-1)/word)
	vals := unsafe.Slice((*Value)(unsafe.Pointer(&block[0])), len(rows.vals))
	var bytes []byte
	if size > 0 {
		bytes = unsafe.Slice((*byte)(unsafe.Pointer(&block[valWords])), size)
		n := 0
		for _, s := range uniq {
			n += copy(bytes[n:], s)
		}
	}
	for i, v := range rows.vals {
		if v.S() == "" {
			vals[i] = v // nil or a kind tag
			continue
		}
		vals[i] = Value{p: unsafe.Pointer(&bytes[offs[0]]), n: v.n}
		offs = offs[1:]
	}
	return Rows{vals: vals, w: rows.w, n: rows.n}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// IsTrue reports whether v is a true boolean (NULL and false are both not true).
func (v Value) IsTrue() bool { return v.p == unsafe.Pointer(&kindTags[KindBool]) && v.n != 0 }

// AsFloat coerces a numeric, date or boolean value to float64 for
// arithmetic, statistics, and feature extraction.
func (v Value) AsFloat() float64 {
	switch v.Kind() {
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
	k := v.Kind()
	return k == KindInt || k == KindFloat || k == KindDate
}

// Width returns the approximate storage width of the value in bytes, used
// for page accounting and the optimizer's width estimates.
func (v Value) Width() int {
	switch v.Kind() {
	case KindString:
		return len(v.S()) + 1
	case KindNull:
		return 1
	default:
		return 8
	}
}

// Compare orders two non-null values of compatible kinds: -1, 0, or +1.
// Integer kinds (int, date, bool) compare by their int64 payload, floats
// as floats, and an integer against a float exactly, as KeyEqual does; a
// NaN compares 0 with everything. Panics on incomparable kinds — the
// planner guarantees type-compatible comparisons.
func Compare(a, b Value) int {
	ak, bk := a.Kind(), b.Kind()
	if ak == KindString && bk == KindString {
		return cmp3(a.S(), b.S())
	}
	if a.Numeric() && b.Numeric() || ak == KindBool && bk == KindBool {
		switch {
		case ak != KindFloat && bk != KindFloat:
			return cmp3(a.I(), b.I())
		case ak == KindFloat && bk == KindFloat:
			return cmp3(a.F(), b.F())
		case ak == KindFloat:
			return -cmpIntFloat(b.I(), a.F())
		default:
			return cmpIntFloat(a.I(), b.F())
		}
	}
	panic(fmt.Sprintf("types: cannot compare %s and %s", ak, bk))
}

// cmp3 is the three-way comparison of two ordered values; unordered
// floats (a NaN) compare 0.
func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat orders i against f without rounding i to a float64.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	// t is f truncated toward zero, exactly; i and t are both int64.
	t := int64(f)
	if c := cmp3(i, t); c != 0 {
		return c
	}
	// i == t: f's fractional part decides (float64(t) is exact).
	return cmp3(float64(t), f)
}

// Equal reports whether two values compare equal (NULLs are never equal).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind() {
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
	switch v.Kind() {
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
	switch v.Kind() {
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
