package catalog

import (
	"math"
	"strings"

	"qpp/internal/sketch"
	"qpp/internal/types"
)

// AnalyzeRowsSketch computes table statistics in bounded memory using
// streaming sketches: HyperLogLog for NDV, Count-Min plus a deterministic
// top-k heap for the MCV list, and a compacting quantile sketch for
// equi-depth histogram bounds. It is column-major: AnalyzeColumnSketch
// streams one column's cells, in row order, through that column's
// sketches and frees them before the next column starts, so at most one
// column's sketches are live and each pass stays in cache. Memory is
// O(HistogramBins + sketch constants) regardless of row count, versus
// AnalyzeRows which materializes every distinct value and every numeric
// cell. AnalyzeRows stays available as the exact differential oracle (see
// TestSketchVsExactStatsSF001 and TestSketchVsExactStatsSF01 in
// internal/opt) the same way Options.Interpret anchors the compiled
// evaluator.
//
// A loader with several tables (storage.Database.LoadTables) calls
// AnalyzeColumnSketch for every column of every table concurrently and
// assembles each table with SketchedTableStats. Nothing a column's
// statistics depend on is shared with another column, and every float sum
// is per column in row order, so the result is bit-identical to this
// serial loop however the columns are scheduled.
//
// Determinism: the sketches hash with a fixed seed and break ties by key
// bytes, so repeated runs over the same rows produce bit-identical
// TableStats.
func AnalyzeRowsSketch(meta *Table, rows types.Rows) *TableStats {
	cols := make([]ColumnStats, len(meta.Columns))
	for ci := range cols {
		cols[ci] = AnalyzeColumnSketch(meta, rows, ci)
	}
	return SketchedTableStats(rows.Len(), cols)
}

// AnalyzeColumnSketch computes the statistics of column ci of rows with
// that column's own sketches. One key rendering and one hash per non-null
// cell, shared across HLL and Count-Min; the key buffer is reused so the
// steady state allocates nothing (TopK copies only on insertion).
func AnalyzeColumnSketch(meta *Table, rows types.Rows, ci int) ColumnStats {
	col := meta.Columns[ci]
	cs := ColumnStats{Name: col.Name, Kind: col.Type}
	numeric := col.Type != types.KindString
	hll := sketch.NewHLL()
	cm := sketch.NewCountMin()
	topk := sketch.NewTopK(topKCandidates)
	var quant *sketch.Quantile
	if numeric {
		quant = sketch.NewQuantile()
	}

	var widths float64
	nonNull := 0
	var buf []byte
	var memo *keyMemo
	if numeric {
		memo = new(keyMemo)
	}
	n := rows.Len()
	for i := range n {
		v := rows.Row(i)[ci]
		widths += float64(v.Width())
		if v.IsNull() {
			continue
		}
		nonNull++
		var h uint64
		if memo != nil {
			buf, h = memo.key(v, buf)
		} else {
			buf = v.AppendKey(buf[:0])
			h = sketch.Hash64(buf)
		}
		hll.AddHash(h)
		est := cm.AddHash(h, 1)
		topk.Offer(buf, h, est)
		if numeric {
			quant.Add(v.AsFloat())
		}
	}

	if n > 0 {
		cs.AvgWidth = widths / float64(n)
		cs.NullFrac = float64(n-nonNull) / float64(n)
	}
	if nonNull == 0 {
		return cs
	}

	// NDV: when the top-k candidate heap never evicted, its candidate
	// set is the complete distinct set and the count is exact — the
	// low-cardinality case (flags, status codes, small dimension
	// tables) where exactness keeps plan choices aligned with the
	// oracle. Otherwise take the HLL estimate, clamped to what is
	// logically possible.
	if !topk.Evicted() {
		cs.NDV = float64(topk.Len())
	} else {
		ndv := math.Round(hll.Estimate())
		if min := float64(topk.Len()); ndv < min {
			ndv = min
		}
		if max := float64(nonNull); ndv > max {
			ndv = max
		}
		cs.NDV = ndv
	}

	// MCV list: the top-k survivors ordered by count descending, key
	// ascending. Counts are Count-Min estimates (overestimates by at
	// most e/width of the stream), so frequencies are capped at 1.
	for _, e := range topk.Top(MCVEntries) {
		f := float64(e.Count) / float64(nonNull)
		if f > 1 {
			f = 1
		}
		cs.MCVs = append(cs.MCVs, MCV{Key: e.Key, Freq: f})
	}

	if numeric {
		cs.Min, cs.Max = quant.Min(), quant.Max()
		cs.Bounds = quant.Bounds(HistogramBins)
	}
	return cs
}

// SketchedTableStats assembles a table of rowCount rows from its columns'
// AnalyzeColumnSketch results, in column order: the row width is their
// widths summed in that order, and the MCV keys are packed into one
// string.
func SketchedTableStats(rowCount int, cols []ColumnStats) *TableStats {
	ts := &TableStats{RowCount: int64(rowCount), Sketched: true, Columns: cols}
	var totalWidth float64
	for _, cs := range cols {
		totalWidth += cs.AvgWidth
	}
	packMCVKeys(ts)
	ts.AvgWidth = totalWidth
	rowsPerPage := float64(PageSize) / (totalWidth + TupleHeaderBytes)
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	ts.Pages = int64(float64(ts.RowCount)/rowsPerPage) + 1
	ts.ScanCols = scanCols(cols)
	return ts
}

// keyMemoBits sets the number of numeric payloads a keyMemo remembers,
// 1 << keyMemoBits.
const keyMemoBits = 10

// keyMemo remembers the key rendering and hash of recently seen numeric
// payloads, direct-mapped by payload bits. Numeric columns repeat values
// (quantities, discounts, dates, the order key of consecutive line items),
// and rendering a float's shortest exact decimal costs more than every
// sketch update of the cell together. A hit returns exactly the bytes and
// hash a fresh rendering would, so the memo changes no statistic.
type keyMemo struct {
	slots [1 << keyMemoBits]keyMemoSlot
}

type keyMemoSlot struct {
	bits uint64
	hash uint64
	kind types.Kind
	n    uint8 // key length; 0 = empty slot (no numeric key is empty)
	key  [24]byte
}

// key returns v's Key() bytes, in buf's storage, and their Hash64.
func (m *keyMemo) key(v types.Value, buf []byte) ([]byte, uint64) {
	var bits uint64
	switch v.Kind() {
	case types.KindFloat:
		bits = math.Float64bits(v.F())
	case types.KindInt, types.KindDate, types.KindBool:
		bits = uint64(v.I())
	default:
		buf = v.AppendKey(buf[:0])
		return buf, sketch.Hash64(buf)
	}
	s := &m.slots[(bits*0x9e3779b97f4a7c15)>>(64-keyMemoBits)]
	if s.n != 0 && s.bits == bits && s.kind == v.Kind() {
		return append(buf[:0], s.key[:s.n]...), s.hash
	}
	buf = v.AppendKey(buf[:0])
	h := sketch.Hash64(buf)
	if len(buf) <= len(s.key) {
		s.bits, s.hash, s.kind, s.n = bits, h, v.Kind(), uint8(len(buf))
		copy(s.key[:], buf)
	}
	return buf, h
}

// topKCandidates is the heavy-hitter candidate pool size. Tracking 4x
// the published MCV count absorbs Count-Min estimation noise near the
// eviction boundary, and doubles as the exact-NDV window: columns with
// at most this many distinct values get exact NDV and a complete
// candidate set.
const topKCandidates = 4 * MCVEntries

// packMCVKeys re-slices every MCV key of ts out of one string, so a
// table's statistics hold one key allocation instead of one per MCV (the
// candidate pool copies each key it admits).
func packMCVKeys(ts *TableStats) {
	var b strings.Builder
	for _, cs := range ts.Columns {
		for _, m := range cs.MCVs {
			b.WriteString(m.Key)
		}
	}
	blob, off := b.String(), 0
	for _, cs := range ts.Columns {
		for i := range cs.MCVs {
			n := len(cs.MCVs[i].Key)
			cs.MCVs[i].Key = blob[off : off+n]
			off += n
		}
	}
}
