package serve

import "math"

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of a
// sorted sample: the smallest element with at least ceil(q*n) elements
// at or below it. Deterministic and exact on the sample — no
// interpolation.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
