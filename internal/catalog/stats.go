package catalog

import (
	"sort"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// HistogramBins is the number of equi-depth histogram buckets per column,
// matching the PostgreSQL default the paper mentions (Section 5.3.3:
// "histograms (with 100 bins) for each column").
const HistogramBins = 100

// MCVEntries is the size of the most-common-value list kept per column.
const MCVEntries = 20

// MCV is one most-common-value entry.
type MCV struct {
	Key  string  // types.Value.Key() of the value
	Freq float64 // fraction of non-null rows holding the value
}

// ColumnStats summarizes one column for cardinality estimation.
type ColumnStats struct {
	Name     string
	Kind     types.Kind
	NullFrac float64
	NDV      float64 // number of distinct values (estimated = exact here)
	AvgWidth float64
	// Min and Max are the numeric bounds (AsFloat) for orderable columns.
	Min, Max float64
	// Bounds is the equi-depth histogram: HistogramBins+1 ascending bucket
	// boundaries over the numeric image of the column. Empty for string
	// columns, which rely on MCVs and NDV instead (a deliberate blind spot
	// shared with simple planners).
	Bounds []float64
	// MCVs lists the most common values with their frequencies.
	MCVs []MCV
}

// TableStats summarizes one table.
type TableStats struct {
	RowCount int64
	Pages    int64
	AvgWidth float64 // mean row width in bytes
	Columns  []ColumnStats
	// Sketched records whether these statistics came from the streaming
	// one-pass ANALYZE (AnalyzeRowsSketch) or the exact oracle
	// (AnalyzeRows).
	Sketched bool
	// ScanCols is the output of a scan of the table: each column's name
	// and kind with its average width (8 bytes when none was measured).
	// It is built with the statistics and every plan's scans of the table
	// share it, read-only; a re-ANALYZE builds new statistics and so a new
	// array.
	ScanCols []plan.Column
}

// scanCols builds TableStats.ScanCols from the column statistics. A
// scan's widths are measured; the planner's colWidth (internal/opt) gives
// the columns of a join's output kind-based widths instead, so two rules
// of planned-column width exist on purpose, as they did before scans
// shared these arrays: plans and their costs depend on both.
func scanCols(cols []ColumnStats) []plan.Column {
	out := make([]plan.Column, len(cols))
	for i, cs := range cols {
		w := 8.0
		if cs.AvgWidth > 0 {
			w = cs.AvgWidth
		}
		out[i] = plan.Column{Name: cs.Name, K: cs.Kind, Width: w}
	}
	return out
}

// Column returns the stats of the named column, or nil.
func (ts *TableStats) Column(name string) *ColumnStats {
	for i := range ts.Columns {
		if ts.Columns[i].Name == name {
			return &ts.Columns[i]
		}
	}
	return nil
}

// PageSize is the storage/buffer page size in bytes (PostgreSQL's 8 KiB).
const PageSize = 8192

// TupleHeaderBytes is the page model's overhead per stored tuple: the
// header a disk-resident heap keeps beside each row's values. It models
// the stored tuple, not the in-memory layout, so it stays 24 however the
// rows are held in memory; every Pages and RowsPerPage counts it.
const TupleHeaderBytes = 24

// AnalyzeRows computes full statistics for a table's rows. Unlike
// PostgreSQL's sampled ANALYZE these statistics are exact over the data,
// but estimation error still arises where it matters: from the attribute
// independence assumption, histogram resolution, and join/group
// extrapolation — the error sources Section 5.3.3 of the paper discusses.
func AnalyzeRows(meta *Table, rows types.Rows) *TableStats {
	n := rows.Len()
	ts := &TableStats{RowCount: int64(n)}
	var totalWidth float64
	ncols := len(meta.Columns)
	ts.Columns = make([]ColumnStats, ncols)

	for ci := 0; ci < ncols; ci++ {
		cs := &ts.Columns[ci]
		cs.Name = meta.Columns[ci].Name
		cs.Kind = meta.Columns[ci].Type

		var widths float64
		nonNull := 0
		counts := make(map[string]int, 1024)
		numeric := cs.Kind != types.KindString
		var vals []float64
		if numeric {
			vals = make([]float64, 0, n)
		}
		for i := range n {
			v := rows.Row(i)[ci]
			widths += float64(v.Width())
			if v.IsNull() {
				continue
			}
			nonNull++
			counts[v.Key()]++
			if numeric {
				vals = append(vals, v.AsFloat())
			}
		}
		if n > 0 {
			cs.AvgWidth = widths / float64(n)
			cs.NullFrac = float64(n-nonNull) / float64(n)
		}
		totalWidth += cs.AvgWidth
		cs.NDV = float64(len(counts))
		if nonNull == 0 {
			continue
		}

		cs.MCVs = mostCommon(counts, nonNull)

		// Numeric histogram for orderable non-string columns.
		if !numeric {
			continue
		}
		sort.Float64s(vals)
		cs.Min, cs.Max = vals[0], vals[len(vals)-1]
		cs.Bounds = equiDepthBounds(vals, HistogramBins)
	}

	ts.AvgWidth = totalWidth
	rowsPerPage := float64(PageSize) / (totalWidth + TupleHeaderBytes)
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	ts.Pages = int64(float64(ts.RowCount)/rowsPerPage) + 1
	ts.ScanCols = scanCols(ts.Columns)
	return ts
}

// mostCommon returns the MCVEntries most frequent keys of counts, by
// count descending then key ascending, with their share of nonNull rows.
// Its sort sits at a function's top level, where qpplint recognises
// collect-then-sort; inside AnalyzeRows' column loop it would not.
func mostCommon(counts map[string]int, nonNull int) []MCV {
	type kc struct {
		k string
		c int
	}
	kcs := make([]kc, 0, len(counts))
	for k, c := range counts {
		kcs = append(kcs, kc{k, c})
	}
	sort.Slice(kcs, func(i, j int) bool {
		if kcs[i].c != kcs[j].c {
			return kcs[i].c > kcs[j].c
		}
		return kcs[i].k < kcs[j].k
	})
	top := MCVEntries
	if top > len(kcs) {
		top = len(kcs)
	}
	var out []MCV
	for _, e := range kcs[:top] {
		out = append(out, MCV{Key: e.k, Freq: float64(e.c) / float64(nonNull)})
	}
	return out
}

// equiDepthBounds returns bins+1 boundaries over sorted vals such that each
// bucket holds about the same number of rows.
func equiDepthBounds(sorted []float64, bins int) []float64 {
	if len(sorted) == 0 {
		return nil
	}
	if bins > len(sorted) {
		bins = len(sorted)
	}
	bounds := make([]float64, bins+1)
	for b := 0; b <= bins; b++ {
		idx := b * (len(sorted) - 1) / bins
		bounds[b] = sorted[idx]
	}
	return bounds
}

// HistogramSelectivityLE estimates P(col <= x) from the histogram via
// linear interpolation within the containing bucket.
func (cs *ColumnStats) HistogramSelectivityLE(x float64) float64 {
	if cs.NDV == 0 {
		// No non-null values at all (empty or all-null column). The
		// zero-valued Min/Max are not real bounds; without this guard the
		// degenerate Min==Max==0 fallback below would claim every row
		// satisfies x >= 0.
		return 0
	}
	b := cs.Bounds
	if len(b) < 2 {
		// No histogram: fall back to a range guess from min/max.
		if cs.Max > cs.Min {
			f := (x - cs.Min) / (cs.Max - cs.Min)
			return clamp01(f)
		}
		if x >= cs.Max {
			return 1
		}
		return 0
	}
	if x < b[0] {
		return 0
	}
	if x >= b[len(b)-1] {
		return 1
	}
	// Binary search for the bucket containing x.
	lo := sort.SearchFloat64s(b, x)
	if lo == 0 {
		lo = 1
	}
	// b[lo-1] <= x < b[lo] is not guaranteed by SearchFloat64s when x equals
	// a boundary; normalize.
	for lo < len(b) && b[lo] <= x {
		lo++
	}
	if lo >= len(b) {
		return 1
	}
	bucketFrac := 0.5
	if b[lo] > b[lo-1] {
		bucketFrac = (x - b[lo-1]) / (b[lo] - b[lo-1])
	}
	nb := float64(len(b) - 1)
	return (float64(lo-1) + bucketFrac) / nb
}

// EqualitySelectivity estimates P(col = v) using the MCV list first and a
// uniform 1/NDV fallback for values outside it.
func (cs *ColumnStats) EqualitySelectivity(v types.Value) float64 {
	if v.IsNull() {
		return 0
	}
	key := v.Key()
	var mcvTotal float64
	for _, m := range cs.MCVs {
		if m.Key == key {
			return m.Freq * (1 - cs.NullFrac)
		}
		mcvTotal += m.Freq
	}
	rest := cs.NDV - float64(len(cs.MCVs))
	if cs.NDV <= float64(len(cs.MCVs)) {
		// All distinct values are in the MCV list; an unseen literal
		// matches nothing, but keep a tiny floor for robustness.
		return 1e-6
	}
	if rest < 1 {
		// Estimated NDV (sketch ANALYZE) can land fractionally above the
		// MCV count; dividing by a fraction of a value would inflate the
		// selectivity past any single value's possible share.
		rest = 1
	}
	sel := (1 - mcvTotal) * (1 - cs.NullFrac) / rest
	// A value outside the MCV list cannot be more frequent than the least
	// common value inside it.
	if n := len(cs.MCVs); n > 0 {
		if cap := cs.MCVs[n-1].Freq * (1 - cs.NullFrac); sel > cap {
			sel = cap
		}
	}
	return sel
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
