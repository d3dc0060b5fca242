package types

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func TestValueLayout(t *testing.T) {
	// Protects batch_exec pass_s and live_heap_mb on all four workloads:
	// both gains are the 40 → 24 bytes every table cell, hash-join build
	// and arena copy moves. A fourth word (a whole string header) was
	// measured to keep pass_s but give a third of the heap gain back.
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	// Protects "identical to the bit": with a pointer payload == would
	// compare string addresses, so it must not compile anywhere.
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == on two Values would compare string addresses")
	}
}

// The payloads every accessor test walks: int64 extremes (negative dates
// among them), float bit patterns that arithmetic would not preserve, and
// strings whose bytes are not text.
var (
	intCases   = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}
	floatCases = []uint64{
		0, 1 << 63, // +0, -0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, // quiet, signalling and signed NaN payloads
		1, 0x000fffffffffffff, 0x8000000000000001, // denormals
		math.Float64bits(3.5), math.Float64bits(-1e300),
	}
	stringCases = []string{"", "a", "a\x00b", "\x00", "\xff\xfe\xc0", "日本語", strings.Repeat("z", 1<<20)}
)

// checkOnly asserts that v reads want through the accessor of its own kind
// and the zero value through the two others, as the unused fields of the
// old 40-byte struct did.
func checkOnly(t *testing.T, v Value, i int64, fbits uint64, s string) {
	t.Helper()
	if v.I() != i || math.Float64bits(v.F()) != fbits || v.S() != s {
		t.Errorf("%s value reads I=%d F=%#x S=%q, want I=%d F=%#x S=%q",
			v.Kind, v.I(), math.Float64bits(v.F()), v.S(), i, fbits, s)
	}
	if !Identical(v, v) {
		t.Errorf("%s value %s is not Identical to itself", v.Kind, v.Key())
	}
}

func checkInt(t *testing.T, i int64) {
	t.Helper()
	checkOnly(t, Int(i), i, 0, "")
	checkOnly(t, Date(i), i, 0, "")
}

func checkFloat(t *testing.T, bits uint64) {
	t.Helper()
	checkOnly(t, Float(math.Float64frombits(bits)), 0, bits, "")
}

func checkString(t *testing.T, s string) {
	t.Helper()
	checkOnly(t, Str(s), 0, 0, s)
	// The same bytes behind another backing array: the case == on a
	// pointer payload would have got wrong.
	if c := Str(strings.Clone(s)); !Identical(Str(s), c) || !KeyEqual(Str(s), c) {
		t.Errorf("Str(%q) is not Identical to a copy of itself", s)
	}
}

func TestAccessorsRoundTrip(t *testing.T) {
	for _, i := range intCases {
		checkInt(t, i)
	}
	for _, bits := range floatCases {
		checkFloat(t, bits)
	}
	for _, s := range stringCases {
		checkString(t, s)
	}
	checkOnly(t, Bool(true), 1, 0, "")
	checkOnly(t, Bool(false), 0, 0, "")
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || !Identical(v, Null) {
		t.Errorf("zero Value has kind %s, want null", v.Kind)
	}
	checkOnly(t, v, 0, 0, "")
}

// A write to the exported Kind field can turn a payload word into an
// integer of another meaning, but never into a string.
func TestForgedKindFabricatesNoString(t *testing.T) {
	for _, v := range []Value{Int(1 << 40), Float(1), Date(7), Bool(true), Null} {
		v.Kind = KindString
		if got := v.S(); got != "" {
			t.Errorf("forged string reads %q, want \"\"", got)
		}
		_ = HashKey(0, v) // must not fault either
	}
}

//go:noinline
func substringOfLargerString() Value {
	parent := strings.Repeat("x", 1<<16) + "needle" + strings.Repeat("y", 1<<16)
	return Str(parent[1<<16 : 1<<16+6])
}

// A string value may point into the middle of a larger string that nothing
// else references: the pointer word alone must keep those bytes alive.
func TestSubstringOutlivesItsParent(t *testing.T) {
	v := substringOfLargerString()
	var sink [][]byte
	for i := 0; i < 4; i++ {
		runtime.GC()
		sink = append(sink, make([]byte, 1<<17)) // reuse freed spans, if any were freed
	}
	if got := v.S(); got != "needle" {
		t.Errorf("substring reads %q after its parent was dropped, want \"needle\"", got)
	}
	runtime.KeepAlive(sink)
}

func TestIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	distinct := []Value{
		Null, Int(1), Float(1), Date(1), Bool(true), Str("1"),
		Int(0), Float(0), Float(negZero), Date(0), Bool(false), Str(""),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000002)),
		Str("a"), Str("a\x00"), Str("b"),
	}
	for i, a := range distinct {
		for j, b := range distinct {
			if got := Identical(a, b); got != (i == j) {
				t.Errorf("Identical(%s %s, %s %s) = %v", a.Kind, a.Key(), b.Kind, b.Key(), got)
			}
		}
	}
}

// FuzzValueRoundTrip: whatever goes into a constructor comes out of the
// accessor of that kind bit for bit, and out of no other.
func FuzzValueRoundTrip(f *testing.F) {
	for k, i := range intCases {
		f.Add(i, floatCases[k%len(floatCases)], stringCases[k%(len(stringCases)-1)])
	}
	f.Fuzz(func(t *testing.T, i int64, bits uint64, s string) {
		checkInt(t, i)
		checkFloat(t, bits)
		checkString(t, s)
		if Identical(Int(i), Date(i)) || Identical(Int(i), Float(float64(i))) || Identical(Str(s), Str(s+"x")) {
			t.Errorf("Identical confuses kinds or strings for i=%d s=%q", i, s)
		}
	})
}
