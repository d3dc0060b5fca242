package sketch

import "math"

// N returns the total number of observations.
func (c *CountMin) N() uint64 { return c.n }

// RelativeErrorBound is the sketch's standard relative error,
// 1.04/sqrt(m) — the theoretical bound the property tests pin.
func (h *HLL) RelativeErrorBound() float64 {
	return 1.04 / math.Sqrt(hllM)
}

// N returns the number of observations.
func (q *Quantile) N() uint64 { return q.n }

// QuantileBinsMax is the largest bin count the sketch's rank-error
// budget covers: boundaries for bins <= this are within N/bins ranks.
const QuantileBinsMax = 100

// EstimateHash returns the (over-)estimated count of the key that hashes
// to h.
func (c *CountMin) EstimateHash(h uint64) uint64 {
	pos := cmPositions(h)
	min := ^uint64(0)
	for i := 0; i < CountMinDepth; i++ {
		if v := c.rows[i][pos[i]]; v < min {
			min = v
		}
	}
	return min
}
