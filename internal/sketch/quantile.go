package sketch

import (
	"math"
	"sort"
)

// QuantileCap is the per-level compaction buffer size. A level holding
// QuantileCap items of weight 2^l compacts into QuantileCap/2 items of
// weight 2^(l+1); each compaction perturbs any rank by at most half the
// compacted weight, so over L = log2(N/cap) levels the deterministic
// worst-case rank error is L·N/(2·cap). At cap 2048 and N = 10^6 that
// is ≈ 0.22%·N — comfortably inside the 1%-of-N budget a 100-bin
// equi-depth histogram needs.
const QuantileCap = 2048

// Quantile is a deterministic streaming quantile sketch in the
// Manku-Rajagopalan-Lindsay compaction family. Level l holds items
// of weight 2^l, sorted ascending; a full level compacts upward by
// keeping alternating items (the parity alternates per compaction via a
// counter, cancelling the fixed-offset bias). Exact min/max are tracked
// on the side so histogram end bounds never drift.
//
// Memory is O(cap · log(N/cap)) regardless of stream length.
type Quantile struct {
	levels  [][]float64
	compact []uint64 // per-level compaction counter (parity source)
	n       uint64   // total observations (== total weight)
	min     float64
	max     float64
}

// NewQuantile returns an empty quantile sketch.
func NewQuantile() *Quantile {
	return &Quantile{min: math.Inf(1), max: math.Inf(-1)}
}

// Add observes one value. NaN is ignored: it has no rank, and admitting
// it would make sorted order ill-defined.
func (q *Quantile) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
	q.n++
	if len(q.levels) == 0 {
		q.levels = append(q.levels, make([]float64, 0, QuantileCap))
		q.compact = append(q.compact, 0)
	}
	q.levels[0] = append(q.levels[0], v)
	if len(q.levels[0]) >= QuantileCap {
		q.compactFrom(0)
	}
}

// Min and Max are the exact observed extremes (undefined before any Add).
func (q *Quantile) Min() float64 { return q.min }

// Max is the exact observed maximum.
func (q *Quantile) Max() float64 { return q.max }

// compactFrom halves every full level starting at l, promoting pairs
// upward. A level is sorted before pairing, so each surviving item
// stands for its neighbour in value order and the rank error stays
// bounded.
func (q *Quantile) compactFrom(l int) {
	for ; l < len(q.levels); l++ {
		if len(q.levels[l]) < QuantileCap {
			return
		}
		lv := q.levels[l]
		sort.Float64s(lv)
		if l+1 == len(q.levels) {
			q.levels = append(q.levels, make([]float64, 0, QuantileCap))
			q.compact = append(q.compact, 0)
		}
		// Alternate which member of each pair survives; a fixed offset
		// would bias every boundary the same direction.
		offset := int(q.compact[l] & 1)
		q.compact[l]++
		pairs := len(lv) / 2
		for i := 0; i < pairs; i++ {
			q.levels[l+1] = append(q.levels[l+1], lv[2*i+offset])
		}
		// An odd leftover keeps its weight at this level.
		if len(lv)%2 == 1 {
			q.levels[l] = append(lv[:0], lv[len(lv)-1])
		} else {
			q.levels[l] = lv[:0]
		}
	}
}

// weighted is the flattened (value, weight) view used by rank queries.
type weighted struct {
	v float64
	w uint64
}

func (q *Quantile) flatten() []weighted {
	total := 0
	for _, lv := range q.levels {
		total += len(lv)
	}
	out := make([]weighted, 0, total)
	for l, lv := range q.levels {
		w := uint64(1) << uint(l)
		for _, v := range lv {
			out = append(out, weighted{v: v, w: w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v < out[j].v })
	return out
}

// Bounds returns bins+1 ascending equi-depth boundaries: boundary i
// approximates the value at rank i·N/bins. The first and last bounds
// are the exact min and max. Returns nil before any observation.
func (q *Quantile) Bounds(bins int) []float64 {
	if q.n == 0 || bins < 1 {
		return nil
	}
	if uint64(bins) > q.n {
		bins = int(q.n)
	}
	items := q.flatten()
	bounds := make([]float64, bins+1)
	bounds[0] = q.min
	bounds[bins] = q.max
	cum := uint64(0)
	idx := 0
	for b := 1; b < bins; b++ {
		// target rank for boundary b, rounded to nearest.
		target := (uint64(b)*q.n + uint64(bins)/2) / uint64(bins)
		for idx < len(items) && cum+items[idx].w < target {
			cum += items[idx].w
			idx++
		}
		if idx < len(items) {
			bounds[b] = items[idx].v
		} else {
			bounds[b] = q.max
		}
	}
	// Clamp into [min, max] and enforce monotonicity (compaction can in
	// principle leave a stale extreme adjacent to the exact bounds).
	for b := 1; b < bins; b++ {
		if bounds[b] < bounds[b-1] {
			bounds[b] = bounds[b-1]
		}
		if bounds[b] > q.max {
			bounds[b] = q.max
		}
	}
	return bounds
}
