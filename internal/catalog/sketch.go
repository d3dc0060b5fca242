package catalog

import (
	"math"
	"strings"

	"qpp/internal/sketch"
	"qpp/internal/types"
)

// AnalyzeRowsSketch computes table statistics in a single bounded-memory
// pass using streaming sketches: HyperLogLog for NDV, Count-Min plus a
// deterministic top-k heap for the MCV list, and a compacting quantile
// sketch for equi-depth histogram bounds. Memory per column is
// O(HistogramBins + sketch constants) regardless of row count, versus
// AnalyzeRows which materializes every distinct value and every numeric
// cell. AnalyzeRows stays available as the exact differential oracle
// (see TestSketchVsExactStats) the same way Options.Interpret anchors
// the compiled evaluator.
//
// Determinism: the sketches hash with a fixed seed and break ties by key
// bytes, so repeated runs over the same rows produce bit-identical
// TableStats.
func AnalyzeRowsSketch(meta *Table, rows [][]types.Value) *TableStats {
	ts := &TableStats{RowCount: int64(len(rows)), Sketched: true}
	ncols := len(meta.Columns)
	ts.Columns = make([]ColumnStats, ncols)

	type colSketch struct {
		hll     *sketch.HLL
		cm      *sketch.CountMin
		topk    *sketch.TopK
		quant   *sketch.Quantile
		widths  float64
		nonNull int
	}
	sk := make([]colSketch, ncols)
	numeric := make([]bool, ncols)
	for ci := 0; ci < ncols; ci++ {
		ts.Columns[ci].Name = meta.Columns[ci].Name
		ts.Columns[ci].Kind = meta.Columns[ci].Type
		numeric[ci] = meta.Columns[ci].Type != types.KindString
		sk[ci] = colSketch{
			hll:  sketch.NewHLL(),
			cm:   sketch.NewCountMin(),
			topk: sketch.NewTopK(topKCandidates),
		}
		if numeric[ci] {
			sk[ci].quant = sketch.NewQuantile()
		}
	}

	// The single pass. One key rendering and one hash per non-null cell,
	// shared across HLL and Count-Min; the key buffer is reused so the
	// steady state allocates nothing (TopK copies only on insertion).
	var buf []byte
	for _, r := range rows {
		for ci := 0; ci < ncols; ci++ {
			v := r[ci]
			s := &sk[ci]
			s.widths += float64(v.Width())
			if v.IsNull() {
				continue
			}
			s.nonNull++
			buf = v.AppendKey(buf[:0])
			h := sketch.Hash64(buf)
			s.hll.AddHash(h)
			est := s.cm.AddHash(h, 1)
			s.topk.Offer(buf, est)
			if numeric[ci] {
				s.quant.Add(v.AsFloat())
			}
		}
	}

	var totalWidth float64
	n := len(rows)
	for ci := 0; ci < ncols; ci++ {
		cs := &ts.Columns[ci]
		s := &sk[ci]
		if n > 0 {
			cs.AvgWidth = s.widths / float64(n)
			cs.NullFrac = float64(n-s.nonNull) / float64(n)
		}
		totalWidth += cs.AvgWidth
		if s.nonNull == 0 {
			continue
		}

		// NDV: when the top-k candidate heap never evicted, its candidate
		// set is the complete distinct set and the count is exact — the
		// low-cardinality case (flags, status codes, small dimension
		// tables) where exactness keeps plan choices aligned with the
		// oracle. Otherwise take the HLL estimate, clamped to what is
		// logically possible.
		if !s.topk.Evicted() {
			cs.NDV = float64(s.topk.Len())
		} else {
			ndv := math.Round(s.hll.Estimate())
			if min := float64(s.topk.Len()); ndv < min {
				ndv = min
			}
			if max := float64(s.nonNull); ndv > max {
				ndv = max
			}
			cs.NDV = ndv
		}

		// MCV list: the top-k survivors ordered by count descending, key
		// ascending. Counts are Count-Min estimates (overestimates by at
		// most e/width of the stream), so frequencies are capped at 1.
		for _, e := range s.topk.Top(MCVEntries) {
			f := float64(e.Count) / float64(s.nonNull)
			if f > 1 {
				f = 1
			}
			cs.MCVs = append(cs.MCVs, MCV{Key: e.Key, Freq: f})
		}

		if numeric[ci] {
			cs.Min, cs.Max = s.quant.Min(), s.quant.Max()
			cs.Bounds = s.quant.Bounds(HistogramBins)
		}
	}

	packMCVKeys(ts)
	ts.AvgWidth = totalWidth
	rowsPerPage := float64(PageSize) / (totalWidth + 24) // 24B tuple header overhead
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	ts.Pages = int64(float64(ts.RowCount)/rowsPerPage) + 1
	return ts
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
