package catalog

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qpp/internal/parallel"
	"qpp/internal/types"
)

// TestAnalyzeSketchLowCardinalityExact: columns whose distinct count
// fits in the candidate pool get exact NDV and a complete MCV list —
// within Count-Min's overestimate slack on frequencies.
func TestAnalyzeSketchLowCardinalityExact(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	for i := 0; i < 5000; i++ {
		rows = append(rows, []types.Value{
			types.Int(int64(i % 7)),
			types.Float(float64(i % 3)),
			types.Str([]string{"a", "b", "c", "d"}[i%4]),
		})
	}
	ts := AnalyzeRowsSketch(meta, types.RowsOf(rows...))
	if !ts.Sketched {
		t.Fatal("Sketched flag not set")
	}
	if id := ts.Column("id"); id.NDV != 7 {
		t.Fatalf("id NDV %v, want exact 7", id.NDV)
	}
	if val := ts.Column("val"); val.NDV != 3 || val.Min != 0 || val.Max != 2 {
		t.Fatalf("val stats %+v", val)
	}
	name := ts.Column("name")
	if name.NDV != 4 || len(name.MCVs) != 4 {
		t.Fatalf("name stats NDV=%v MCVs=%v", name.NDV, name.MCVs)
	}
	for _, m := range name.MCVs {
		if math.Abs(m.Freq-0.25) > 0.01 {
			t.Fatalf("MCV %q freq %v, want ~0.25", m.Key, m.Freq)
		}
	}
}

// TestAnalyzeSketchHighCardinality: the HLL path stays within its
// 3-sigma bound and Min/Max/histogram end bounds are exact.
func TestAnalyzeSketchHighCardinality(t *testing.T) {
	meta := testTable()
	rng := rand.New(rand.NewSource(1))
	const n = 50000
	var rows [][]types.Value
	for i := 0; i < n; i++ {
		rows = append(rows, []types.Value{
			types.Int(int64(i)),
			types.Float(rng.NormFloat64() * 100),
			types.Str("x"),
		})
	}
	ts := AnalyzeRowsSketch(meta, types.RowsOf(rows...))
	id := ts.Column("id")
	if rel := math.Abs(id.NDV-n) / n; rel > 0.025 {
		t.Fatalf("id NDV %v, relative error %v", id.NDV, rel)
	}
	if id.Min != 0 || id.Max != n-1 {
		t.Fatalf("id range %v..%v", id.Min, id.Max)
	}
	if len(id.Bounds) != HistogramBins+1 {
		t.Fatalf("%d bounds", len(id.Bounds))
	}
	if id.Bounds[0] != 0 || id.Bounds[HistogramBins] != n-1 {
		t.Fatalf("end bounds %v..%v", id.Bounds[0], id.Bounds[HistogramBins])
	}
	// Histogram selectivity over the uniform column stays near truth.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := id.HistogramSelectivityLE(q * (n - 1)); math.Abs(got-q) > 0.02 {
			t.Fatalf("sel(<=%v quantile) = %v", q, got)
		}
	}
}

// TestAnalyzeSketchDeterministic: two runs over the same rows are
// deeply identical — the bit-identical repeated-ANALYZE contract — and so
// are the columns analyzed concurrently, in reverse order, then
// assembled, as the storage loader does.
func TestAnalyzeSketchDeterministic(t *testing.T) {
	meta := testTable()
	rng := rand.New(rand.NewSource(9))
	var rows [][]types.Value
	for i := 0; i < 20000; i++ {
		rows = append(rows, []types.Value{
			types.Int(rng.Int63n(500)),
			types.Float(rng.NormFloat64()),
			types.Str(string(rune('a' + rng.Intn(26)))),
		})
	}
	a := AnalyzeRowsSketch(meta, types.RowsOf(rows...))
	b := AnalyzeRowsSketch(meta, types.RowsOf(rows...))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated sketch ANALYZE runs differ")
	}
	cols := make([]ColumnStats, len(meta.Columns))
	if err := parallel.ForEach(len(cols), 2, func(i int) error {
		ci := len(cols) - 1 - i
		cols[ci] = AnalyzeColumnSketch(meta, types.RowsOf(rows...), ci)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c := SketchedTableStats(len(rows), cols); !reflect.DeepEqual(a, c) {
		t.Fatal("concurrent column-by-column ANALYZE differs from AnalyzeRowsSketch")
	}
}

// TestAnalyzeSketchNullsAndEmpty mirrors the exact-ANALYZE edge cases.
func TestAnalyzeSketchNullsAndEmpty(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	for i := 0; i < 100; i++ {
		v := types.Int(int64(i))
		if i%4 == 0 {
			v = types.Null
		}
		rows = append(rows, []types.Value{v, types.Float(1), types.Str("s")})
	}
	cs := AnalyzeRowsSketch(meta, types.RowsOf(rows...)).Column("id")
	if cs.NullFrac != 0.25 {
		t.Fatalf("null frac %v", cs.NullFrac)
	}
	if cs.NDV != 75 {
		t.Fatalf("ndv %v, want exact 75 (under candidate pool)", cs.NDV)
	}
	if ts := AnalyzeRowsSketch(testTable(), types.Rows{}); ts.RowCount != 0 || ts.Pages <= 0 {
		t.Fatalf("empty stats %+v", ts)
	}
}

// TestHistogramSelectivityAllNull: a column with no non-null values must
// report zero selectivity for any range predicate. Before the NDV==0
// guard, the zero-valued Min==Max fallback claimed sel=1 for any x >= 0.
func TestHistogramSelectivityAllNull(t *testing.T) {
	meta := testTable()
	var rows [][]types.Value
	for i := 0; i < 50; i++ {
		rows = append(rows, []types.Value{types.Null, types.Float(1), types.Str("s")})
	}
	for _, analyze := range []func(*Table, types.Rows) *TableStats{AnalyzeRows, AnalyzeRowsSketch} {
		cs := analyze(meta, types.RowsOf(rows...)).Column("id")
		if cs.NDV != 0 {
			t.Fatalf("all-null NDV %v", cs.NDV)
		}
		for _, x := range []float64{-1, 0, 5, 1e9} {
			if got := cs.HistogramSelectivityLE(x); got != 0 {
				t.Fatalf("all-null column: sel(<=%v) = %v, want 0", x, got)
			}
		}
	}
}

// TestEqualitySelectivityFractionalNDV: estimated NDV landing between
// len(MCVs) and len(MCVs)+1 must not inflate the non-MCV selectivity
// past the least common MCV's frequency.
func TestEqualitySelectivityFractionalNDV(t *testing.T) {
	cs := &ColumnStats{
		Name: "c",
		Kind: types.KindInt,
		NDV:  20.4, // sketch estimate; true distinct count is ~20
		MCVs: make([]MCV, 20),
	}
	for i := range cs.MCVs {
		cs.MCVs[i] = MCV{Key: string(rune('a' + i)), Freq: 0.049}
	}
	// 20 MCVs cover 0.98; the old code divided the remaining 0.02 by
	// rest=0.4, yielding 0.05 > the least common MCV — impossible.
	sel := cs.EqualitySelectivity(types.Int(999))
	if sel > cs.MCVs[19].Freq {
		t.Fatalf("non-MCV sel %v exceeds least common MCV freq %v", sel, cs.MCVs[19].Freq)
	}
	if sel <= 0 {
		t.Fatalf("non-MCV sel %v", sel)
	}
	// NDV at or below the MCV count keeps the tiny-floor behavior.
	cs.NDV = 19.7
	if sel := cs.EqualitySelectivity(types.Int(999)); sel != 1e-6 {
		t.Fatalf("NDV<=len(MCVs) sel %v, want 1e-6 floor", sel)
	}
}
