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
	// Protects live_heap_mb on all four workloads: every table cell in the
	// packed blocks, and every hash-join build and arena copy, is one
	// Value, so a third word (a kind byte padded to eight) gives back the
	// fifth of the heap that tagging the kind into the pointer word took
	// off; batch_exec pass_s, which the 40 → 24 step cut, must not move.
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	// Protects "identical to the bit": with a pointer payload == would
	// compare string addresses, so it must not compile anywhere.
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == on two Values would compare string addresses")
	}
}

// Protects "a value comes only from a constructor": with no exported
// field, no caller can pair a kind with a payload of another meaning, so
// the pointer word can never be read as a string it is not.
func TestValueHasNoExportedField(t *testing.T) {
	typ := reflect.TypeOf(Value{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("Value has exported field %s %s", f.Name, f.Type)
		}
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

// checkOnly asserts that v has kind k, reads want through the accessor of
// its own kind and the zero value through the two others, and is NULL
// exactly when k is.
func checkOnly(t *testing.T, v Value, k Kind, i int64, fbits uint64, s string) {
	t.Helper()
	if v.Kind() != k || v.IsNull() != (k == KindNull) {
		t.Errorf("value of kind %s (IsNull %v), want kind %s", v.Kind(), v.IsNull(), k)
	}
	if v.I() != i || math.Float64bits(v.F()) != fbits || v.S() != s {
		t.Errorf("%s value reads I=%d F=%#x S=%q, want I=%d F=%#x S=%q",
			v.Kind(), v.I(), math.Float64bits(v.F()), v.S(), i, fbits, s)
	}
	if !Identical(v, v) {
		t.Errorf("%s value %s is not Identical to itself", v.Kind(), v.Key())
	}
}

func checkInt(t *testing.T, i int64) {
	t.Helper()
	checkOnly(t, Int(i), KindInt, i, 0, "")
	checkOnly(t, Date(i), KindDate, i, 0, "")
}

func checkFloat(t *testing.T, bits uint64) {
	t.Helper()
	checkOnly(t, Float(math.Float64frombits(bits)), KindFloat, 0, bits, "")
}

// checkString round-trips s, and the empty strings around it, through Str
// and through a packed block: an empty string is KindString whatever its
// data pointer (s[:0] has one, "" may have none), never NULL.
func checkString(t *testing.T, s string) {
	t.Helper()
	checkOnly(t, Str(s), KindString, 0, 0, s)
	checkOnly(t, Str(s[:0]), KindString, 0, 0, "")
	checkOnly(t, Str(string([]byte(s)[:0])), KindString, 0, 0, "")
	// The same bytes behind another backing array: the case == on a
	// pointer payload would have got wrong.
	if c := Str(strings.Clone(s)); !Identical(Str(s), c) || !KeyEqual(Str(s), c) {
		t.Errorf("Str(%q) is not Identical to a copy of itself", s)
	}
	packed := PackRows([][]Value{{Str(s), Str(s[:0]), Value{}}})[0]
	checkOnly(t, packed[0], KindString, 0, 0, s)
	checkOnly(t, packed[1], KindString, 0, 0, "")
	checkOnly(t, packed[2], KindNull, 0, 0, "")
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
	checkOnly(t, Bool(true), KindBool, 1, 0, "")
	checkOnly(t, Bool(false), KindBool, 0, 0, "")
	checkOnly(t, Null, KindNull, 0, 0, "")
	checkOnly(t, Str(""), KindString, 0, 0, "")
	checkOnly(t, Str(strings.Repeat("ab", 2)[:0]), KindString, 0, 0, "")
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || !Identical(v, Null) {
		t.Errorf("zero Value has kind %s, want null", v.Kind())
	}
	checkOnly(t, v, KindNull, 0, 0, "")
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
				t.Errorf("Identical(%s %s, %s %s) = %v", a.Kind(), a.Key(), b.Kind(), b.Key(), got)
			}
		}
	}
}

// FuzzValueRoundTrip: whatever goes into a constructor comes out of the
// accessor of that kind bit for bit, and out of no other, also from a
// packed block; empty strings stay strings and the zero Value NULL.
func FuzzValueRoundTrip(f *testing.F) {
	for k, i := range intCases {
		f.Add(i, floatCases[k%len(floatCases)], stringCases[k%(len(stringCases)-1)])
	}
	f.Fuzz(func(t *testing.T, i int64, bits uint64, s string) {
		checkInt(t, i)
		checkFloat(t, bits)
		checkString(t, s)
		checkOnly(t, Value{}, KindNull, 0, 0, "")
		if Identical(Int(i), Date(i)) || Identical(Int(i), Float(float64(i))) || Identical(Str(s), Str(s+"x")) {
			t.Errorf("Identical confuses kinds or strings for i=%d s=%q", i, s)
		}
	})
}

// checkPacked asserts the PackRows contract on one input: every value
// Identical to its input, every row cap == len, equal strings on one data
// pointer, and every pointer — value and row header — nil, a kind tag or
// inside the one block, whose extent the layout gives: the values, then
// the row headers out points at, then the distinct strings' bytes.
func checkPacked(t *testing.T, in, out [][]Value) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("PackRows returned %d rows, want %d", len(out), len(in))
	}
	if len(in) == 0 {
		return
	}
	nvals, size := 0, 0
	distinct := map[string]bool{}
	for _, r := range in {
		nvals += len(r)
		for _, v := range r {
			if s := v.S(); s != "" && !distinct[s] {
				distinct[s] = true
				size += len(s)
			}
		}
	}
	headers := uintptr(unsafe.Pointer(unsafe.SliceData(out)))
	lo := headers - uintptr(nvals)*unsafe.Sizeof(Value{})
	hi := headers + uintptr(len(out))*unsafe.Sizeof(out[0]) + uintptr(size)
	inBlock := func(p unsafe.Pointer, n uintptr) bool {
		return uintptr(p) >= lo && uintptr(p)+n <= hi
	}
	bytesAt := map[string]unsafe.Pointer{}
	for i, r := range out {
		if len(r) != len(in[i]) || cap(r) != len(r) {
			t.Fatalf("row %d: len %d cap %d, want len = cap = %d", i, len(r), cap(r), len(in[i]))
		}
		if p := unsafe.Pointer(unsafe.SliceData(r)); p != nil && !inBlock(p, uintptr(len(r))*unsafe.Sizeof(Value{})) {
			t.Fatalf("row %d header points at %p, outside the block [%#x, %#x)", i, p, lo, hi)
		}
		for j, v := range r {
			if !Identical(v, in[i][j]) {
				t.Fatalf("row %d col %d: packed %s %q, want %s %q", i, j, v.Kind(), v.Key(), in[i][j].Kind(), in[i][j].Key())
			}
			if v.p == nil || isKindTag(v.p) {
				continue
			}
			if v.Kind() != KindString || !inBlock(v.p, uintptr(v.n)) {
				t.Fatalf("row %d col %d: %s value points at %p, outside the block [%#x, %#x)", i, j, v.Kind(), v.p, lo, hi)
			}
			s := v.S()
			if s == "" {
				t.Fatalf("row %d col %d: empty string carries pointer %p, want the string tag", i, j, v.p)
			}
			if q, ok := bytesAt[s]; ok && q != v.p {
				t.Fatalf("row %d col %d: %q stored twice", i, j, s)
			}
			bytesAt[s] = v.p
		}
	}
}

// isKindTag reports whether p points at one of the kind tags.
func isKindTag(p unsafe.Pointer) bool {
	return uintptr(p)-uintptr(unsafe.Pointer(&kindTags)) < unsafe.Sizeof(kindTags)
}

func TestPackRows(t *testing.T) {
	dup := strings.Repeat("dup", 3)
	cases := map[string][][]Value{
		"nil":               nil,
		"empty":             {},
		"zero-column rows":  {{}, nil, {}},
		"trailing empty":    {{Int(1)}, {}},
		"nulls":             {{Null, Null}, {Null}},
		"empty strings":     {{Str(""), Str("x")}, {Str(dup[:0])}, {Str(dup[9:]), Str(strings.Repeat("", 2))}},
		"duplicate strings": {{Str("dupdupdup"), Str(dup)}, {Str(dup[:3]), Str("dup"), Str(dup[3:])}},
		"every kind":        {{Null, Int(-1), Float(-0.5), Str("日本語"), Date(-3), Bool(true)}},
		"repacked":          {PackRows([][]Value{{Str("outside"), Str(""), Int(5), Value{}}})[0]},
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkPacked(t, in, PackRows(in)) })
	}
}

// rowsFromBytes decodes a fuzz input into rows: a byte gives a row's
// column count, and each value takes a kind byte and a payload byte.
// Strings come from a small pool or from the input's own bytes, so equal
// strings recur at different addresses.
func rowsFromBytes(data []byte) [][]Value {
	if len(data) == 0 {
		return nil
	}
	pool := []string{"", "a", "ab", "b", "日本", "a\x00"}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rows := [][]Value{}
	for len(data) > 0 {
		var row []Value
		for c := next() % 5; c > 0; c-- {
			k, x := next(), next()
			var v Value
			switch k % 10 {
			case 1:
				v = Int(int64(int8(x)) << 40)
			case 2:
				v = Float(float64(int8(x)) / 4)
			case 3:
				v = Date(int64(x) - 128)
			case 4:
				v = Bool(x&1 == 1)
			case 5:
				v = Str(pool[int(x)%len(pool)])
			case 6:
				v = Str(string(data[:min(len(data), int(x%8))]))
			case 7:
				v = PackRows([][]Value{{Str(pool[int(x)%len(pool)])}})[0][0] // from another block
			case 8:
				v = Value{}
			case 9:
				v = Str(pool[int(x)%len(pool)][:0]) // no bytes, but a data pointer
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows
}

// FuzzPackRows: whatever rows go in, the packed copy keeps the PackRows
// contract (checkPacked).
func FuzzPackRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                         // zero-column rows
	f.Add([]byte{2, 0, 0, 0, 0})                   // NULLs
	f.Add([]byte{3, 5, 0, 9, 2, 6, 0})             // empty strings
	f.Add([]byte{4, 5, 1, 5, 7, 6, 1, 'a', 5, 1})  // duplicate strings
	f.Add([]byte{3, 7, 3, 8, 9, 7, 0, 1, 1, 2, 2}) // repacked cells, zero Values
	f.Fuzz(func(t *testing.T, data []byte) {
		in := rowsFromBytes(data)
		checkPacked(t, in, PackRows(in))
	})
}
