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
// equi-depth histogram needs (QuantileBinsMax).
const QuantileCap = 2048

// QuantileBinsMax is the largest bin count the sketch's rank-error
// budget covers: boundaries for bins <= this are within N/bins ranks.
const QuantileBinsMax = 100

// Quantile is a deterministic mergeable streaming quantile sketch in
// the Manku-Rajagopalan-Lindsay compaction family. Level l holds items
// of weight 2^l, sorted ascending; a full level compacts upward by
// keeping alternating items (the parity alternates per compaction via a
// counter, cancelling the fixed-offset bias). Exact min/max are tracked
// on the side so histogram end bounds never drift.
//
// Memory is O(cap · log(N/cap)) regardless of stream length. Merging
// concatenates levels and re-compacts; because levels are value
// multisets and compaction sorts first, merge is commutative down to
// the serialized bytes.
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
// it would make sorted order (and therefore the canonical encoding)
// ill-defined.
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

// N returns the number of observations.
func (q *Quantile) N() uint64 { return q.n }

// Min and Max are the exact observed extremes (undefined before any Add).
func (q *Quantile) Min() float64 { return q.min }

// Max is the exact observed maximum.
func (q *Quantile) Max() float64 { return q.max }

// compactFrom halves every full level starting at l, promoting pairs
// upward. Levels are sorted before pairing, so the state after
// compaction depends only on the level's value multiset and the
// compaction counter — the property the commutative merge relies on.
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

// Merge folds other into q. Commutative: merge(a,b) and merge(b,a)
// marshal identically.
func (q *Quantile) Merge(other *Quantile) {
	if other.n == 0 {
		return
	}
	if other.min < q.min {
		q.min = other.min
	}
	if other.max > q.max {
		q.max = other.max
	}
	q.n += other.n
	for l := 0; l < len(other.levels); l++ {
		for len(q.levels) <= l {
			q.levels = append(q.levels, make([]float64, 0, QuantileCap))
			q.compact = append(q.compact, 0)
		}
		q.levels[l] = append(q.levels[l], other.levels[l]...)
		q.compact[l] += other.compact[l]
	}
	// Sort every level before re-compacting so the result depends only
	// on the combined multisets, not on which operand came first.
	for l := range q.levels {
		sort.Float64s(q.levels[l])
	}
	for l := 0; l < len(q.levels); l++ {
		for len(q.levels[l]) >= QuantileCap {
			q.compactFrom(l)
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

// MarshalBinary renders the sketch canonically: levels are sorted
// before encoding, so states equal as multisets marshal identically.
func (q *Quantile) MarshalBinary() ([]byte, error) {
	out := appendHeader(nil, kindQuantile)
	out = appendU64(out, q.n)
	out = appendU64(out, math.Float64bits(q.min))
	out = appendU64(out, math.Float64bits(q.max))
	out = appendU64(out, uint64(len(q.levels)))
	for l, lv := range q.levels {
		sorted := append([]float64(nil), lv...)
		sort.Float64s(sorted)
		out = appendU64(out, q.compact[l])
		out = appendU64(out, uint64(len(sorted)))
		for _, v := range sorted {
			out = appendU64(out, math.Float64bits(v))
		}
	}
	return out, nil
}

// UnmarshalBinary restores a sketch from MarshalBinary output.
func (q *Quantile) UnmarshalBinary(data []byte) error {
	body, err := checkHeader(data, kindQuantile)
	if err != nil {
		return err
	}
	rd := func() (uint64, error) {
		v, rest, err := readU64(body)
		body = rest
		return v, err
	}
	n, err := rd()
	if err != nil {
		return err
	}
	minBits, err := rd()
	if err != nil {
		return err
	}
	maxBits, err := rd()
	if err != nil {
		return err
	}
	nLevels, err := rd()
	if err != nil {
		return err
	}
	if nLevels > 64 {
		return errSizef("quantile levels", int(nLevels), 64)
	}
	min, max := math.Float64frombits(minBits), math.Float64frombits(maxBits)
	if math.IsNaN(min) || math.IsNaN(max) {
		return errNaN
	}
	q.n = n
	q.min = min
	q.max = max
	q.levels = make([][]float64, 0, nLevels)
	q.compact = make([]uint64, 0, nLevels)
	for l := uint64(0); l < nLevels; l++ {
		c, err := rd()
		if err != nil {
			return err
		}
		sz, err := rd()
		if err != nil {
			return err
		}
		if sz > QuantileCap {
			return errSizef("quantile level", int(sz), QuantileCap)
		}
		lv := make([]float64, 0, QuantileCap)
		for i := uint64(0); i < sz; i++ {
			bits, err := rd()
			if err != nil {
				return err
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) {
				return errNaN
			}
			lv = append(lv, v)
		}
		q.levels = append(q.levels, lv)
		q.compact = append(q.compact, c)
	}
	return nil
}
