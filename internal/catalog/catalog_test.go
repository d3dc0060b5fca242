package catalog

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qpp/internal/types"
)

func testTable() *Table {
	return &Table{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: types.KindInt},
			{Name: "val", Type: types.KindFloat},
			{Name: "name", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}
}

func TestSchemaAddLookup(t *testing.T) {
	s := NewSchema()
	if err := s.AddTable(testTable()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(testTable()); err == nil {
		t.Fatal("duplicate table should fail")
	}
	tab, ok := s.Table("t")
	if !ok || tab.Name != "t" {
		t.Fatal("lookup failed")
	}
	if tab.ColumnIndex("val") != 1 || tab.ColumnIndex("nope") != -1 {
		t.Fatal("column index")
	}
	if names := s.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("names %v", names)
	}
}

func TestAnalyzeBasics(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	for i := 0; i < 1000; i++ {
		rows = append(rows, []types.Value{
			types.Int(int64(i)),
			types.Float(float64(i % 10)),
			types.Str("name"),
		})
	}
	ts := AnalyzeRows(meta, types.RowsOf(rows...))
	if ts.RowCount != 1000 {
		t.Fatalf("rows %d", ts.RowCount)
	}
	if ts.Pages <= 0 {
		t.Fatal("pages")
	}
	id := ts.Column("id")
	if id.NDV != 1000 || id.Min != 0 || id.Max != 999 {
		t.Fatalf("id stats %+v", id)
	}
	val := ts.Column("val")
	if val.NDV != 10 {
		t.Fatalf("val ndv %v", val.NDV)
	}
	if ts.Column("nope") != nil {
		t.Fatal("missing column should be nil")
	}
}

func TestHistogramSelectivityUniform(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	for i := 0; i < 10000; i++ {
		rows = append(rows, []types.Value{
			types.Int(int64(i)), types.Float(0), types.Str(""),
		})
	}
	ts := AnalyzeRows(meta, types.RowsOf(rows...))
	cs := ts.Column("id")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
		got := cs.HistogramSelectivityLE(q * 9999)
		if math.Abs(got-q) > 0.02 {
			t.Fatalf("sel(<=%v quantile) = %v", q, got)
		}
	}
	if cs.HistogramSelectivityLE(-5) != 0 {
		t.Fatal("below min")
	}
	if cs.HistogramSelectivityLE(1e9) != 1 {
		t.Fatal("above max")
	}
}

func TestHistogramSelectivityMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		meta := testTable()
		n := 50 + rng.Intn(500)
		var rows [][]types.Value
		for i := 0; i < n; i++ {
			rows = append(rows, []types.Value{
				types.Int(int64(rng.Intn(1000))), types.Float(rng.NormFloat64()), types.Str("x"),
			})
		}
		cs := AnalyzeRows(meta, types.RowsOf(rows...)).Column("id")
		prev := -1.0
		for x := -10.0; x <= 1010; x += 25 {
			s := cs.HistogramSelectivityLE(x)
			if s < prev-1e-12 || s < 0 || s > 1 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualitySelectivityMCVAndRest(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	// value 7 appears half the time; the rest uniform over 0..99.
	for i := 0; i < 2000; i++ {
		v := int64(i % 100)
		if i%2 == 0 {
			v = 7
		}
		rows = append(rows, []types.Value{types.Int(v), types.Float(0), types.Str("")})
	}
	cs := AnalyzeRows(meta, types.RowsOf(rows...)).Column("id")
	sel7 := cs.EqualitySelectivity(types.Int(7))
	if math.Abs(sel7-0.505) > 0.01 {
		t.Fatalf("MCV sel %v want ~0.505", sel7)
	}
	sel3 := cs.EqualitySelectivity(types.Int(3))
	if sel3 <= 0 || sel3 > 0.02 {
		t.Fatalf("non-MCV sel %v", sel3)
	}
	if cs.EqualitySelectivity(types.Null) != 0 {
		t.Fatal("null equality")
	}
}

func TestAnalyzeNullFraction(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	for i := 0; i < 100; i++ {
		v := types.Int(int64(i))
		if i%4 == 0 {
			v = types.Null
		}
		rows = append(rows, []types.Value{v, types.Float(1), types.Str("s")})
	}
	cs := AnalyzeRows(meta, types.RowsOf(rows...)).Column("id")
	if cs.NullFrac != 0.25 {
		t.Fatalf("null frac %v", cs.NullFrac)
	}
	if cs.NDV != 75 {
		t.Fatalf("ndv %v", cs.NDV)
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	ts := AnalyzeRows(testTable(), types.Rows{})
	if ts.RowCount != 0 || ts.Pages <= 0 {
		t.Fatalf("empty stats %+v", ts)
	}
}

func TestEquiDepthBoundsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		sortFloats(vals)
		b := equiDepthBounds(vals, HistogramBins)
		if b[0] != vals[0] || b[len(b)-1] != vals[n-1] {
			return false
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
