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
	packed := PackRows(RowsOf([]Value{Str(s), Str(s[:0]), Value{}})).Row(0)
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

// checkPacked asserts the PackRows contract on one input: the same width
// and row count, every value Identical to its input, row i the cap == len
// view at offset i*width of the packed values, equal strings on one data
// pointer, and every pointer nil, a kind tag or inside the one block, whose
// extent the layout gives: the values, then the distinct strings' bytes.
func checkPacked(t *testing.T, in, out Rows) {
	t.Helper()
	if out.Len() != in.Len() || out.Width() != in.Width() {
		t.Fatalf("PackRows returned %d rows of width %d, want %d of width %d", out.Len(), out.Width(), in.Len(), in.Width())
	}
	w, nvals, size := in.Width(), in.Len()*in.Width(), 0
	if len(out.vals) != nvals {
		t.Fatalf("PackRows holds %d values, want %d", len(out.vals), nvals)
	}
	if nvals == 0 {
		return
	}
	if &out.vals[0] == &in.vals[0] {
		t.Fatal("PackRows returned its input, not a copy")
	}
	distinct := map[string]bool{}
	for _, v := range in.vals {
		if s := v.S(); s != "" && !distinct[s] {
			distinct[s] = true
			size += len(s)
		}
	}
	lo := uintptr(unsafe.Pointer(&out.vals[0]))
	hi := lo + uintptr(nvals)*unsafe.Sizeof(Value{}) + uintptr(size)
	inBlock := func(p unsafe.Pointer, n uintptr) bool {
		return uintptr(p) >= lo && uintptr(p)+n <= hi
	}
	bytesAt := map[string]unsafe.Pointer{}
	for i := range out.Len() {
		r, want := out.Row(i), in.Row(i)
		if len(r) != w || cap(r) != len(r) {
			t.Fatalf("row %d: len %d cap %d, want len = cap = %d", i, len(r), cap(r), w)
		}
		if p := unsafe.Pointer(unsafe.SliceData(r)); p != unsafe.Pointer(&out.vals[i*w]) {
			t.Fatalf("row %d starts at %p, want value %d at %p", i, p, i*w, &out.vals[i*w])
		}
		for j, v := range r {
			if !Identical(v, want[j]) {
				t.Fatalf("row %d col %d: packed %s %q, want %s %q", i, j, v.Kind(), v.Key(), want[j].Kind(), want[j].Key())
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
	cases := map[string]Rows{
		"nil":              RowsOf(),
		"empty":            NewRows(3, []Value{}),
		"zero-column rows": RowsOf([]Value{}, nil, []Value{}),
		"trailing empty":   RowsOf([]Value{Int(1), Str("")}, []Value{Null, Str(dup[:0])}),
		"nulls":            RowsOf([]Value{Null, Null}, []Value{Null, Null}),
		"empty strings": RowsOf(
			[]Value{Str(""), Str("x")}, []Value{Str(dup[:0]), Str(dup[9:])}, []Value{Str(strings.Repeat("", 2)), Null}),
		"duplicate strings": RowsOf(
			[]Value{Str("dupdupdup"), Str(dup), Str(dup[:3])}, []Value{Str("dup"), Str(dup[3:]), Null}),
		"every kind": RowsOf([]Value{Null, Int(-1), Float(-0.5), Str("日本語"), Date(-3), Bool(true)}),
		"repacked":   RowsOf(PackRows(RowsOf([]Value{Str("outside"), Str(""), Int(5), Value{}})).Row(0)),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkPacked(t, in, PackRows(in)) })
	}
}

// TestRowsRejectRaggedInput: a set of rows has one width, so neither
// constructor accepts rows of two widths or a partial row, and a set of
// zero-width rows keeps its count.
func TestRowsRejectRaggedInput(t *testing.T) {
	for name, build := range map[string]func() Rows{
		"ragged rows":         func() Rows { return RowsOf([]Value{Int(1)}, []Value{}) },
		"partial row":         func() Rows { return NewRows(2, []Value{Int(1), Int(2), Int(3)}) },
		"values of no width":  func() Rows { return NewRows(0, []Value{Int(1)}) },
		"negative width":      func() Rows { return NewRows(-1, nil) },
		"ragged after packed": func() Rows { return RowsOf(PackRows(RowsOf([]Value{Int(1)})).Row(0), nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		})
	}
	if r := RowsOf(nil, nil, nil); r.Len() != 3 || r.Width() != 0 || len(r.Row(2)) != 0 {
		t.Errorf("three zero-width rows read as %d rows of width %d", r.Len(), r.Width())
	}
}

// rowsFromBytes decodes a fuzz input into rows of one width: the first
// byte gives the width, and each row takes a marker byte (so zero-width
// rows still count) and, per value, a kind byte and a payload byte; a row
// the input runs out in is completed with NULLs. Strings come from a small
// pool or from the input's own bytes, so equal strings recur at different
// addresses.
func rowsFromBytes(data []byte) Rows {
	if len(data) == 0 {
		return Rows{}
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
	w := int(next() % 5)
	var rows [][]Value
	for len(data) > 0 {
		next() // the row marker
		row := make([]Value, w)
		for c := range row {
			k, x := next(), next()
			switch k % 10 {
			case 1:
				row[c] = Int(int64(int8(x)) << 40)
			case 2:
				row[c] = Float(float64(int8(x)) / 4)
			case 3:
				row[c] = Date(int64(x) - 128)
			case 4:
				row[c] = Bool(x&1 == 1)
			case 5:
				row[c] = Str(pool[int(x)%len(pool)])
			case 6:
				row[c] = Str(string(data[:min(len(data), int(x%8))]))
			case 7:
				row[c] = PackRows(RowsOf([]Value{Str(pool[int(x)%len(pool)])})).Row(0)[0] // from another block
			case 9:
				row[c] = Str(pool[int(x)%len(pool)][:0]) // no bytes, but a data pointer
			}
		}
		rows = append(rows, row)
	}
	return RowsOf(rows...)
}

// FuzzPackRows: whatever rows go in, the packed copy keeps the PackRows
// contract (checkPacked).
func FuzzPackRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                                  // zero-column rows
	f.Add([]byte{2, 0, 0, 0, 8, 0, 0, 8, 0, 0, 0})             // NULLs
	f.Add([]byte{3, 0, 5, 0, 9, 2, 6, 0})                      // empty strings
	f.Add([]byte{2, 0, 5, 1, 5, 7, 0, 6, 1, 'a', 5})           // duplicate strings
	f.Add([]byte{3, 0, 7, 3, 8, 9, 7, 0, 0, 1, 1, 2, 2, 0, 0}) // repacked cells, zero Values
	f.Fuzz(func(t *testing.T, data []byte) {
		in := rowsFromBytes(data)
		checkPacked(t, in, PackRows(in))
	})
}
