package sketch

import (
	"math"
	"math/bits"
)

// HLLPrecision is the register-index width: 2^14 = 16384 registers,
// 16 KiB per column, standard relative error 1.04/sqrt(2^14) ≈ 0.81%.
const HLLPrecision = 14

// hllM is the register count.
const hllM = 1 << HLLPrecision

// hllQ is the rank-value width: ranks run 0..hllQ+1.
const hllQ = 64 - HLLPrecision

// HLL is a HyperLogLog distinct-value counter. The zero value is not
// usable; construct with NewHLL.
type HLL struct {
	reg []uint8
}

// NewHLL returns an empty HyperLogLog sketch.
func NewHLL() *HLL { return &HLL{reg: make([]uint8, hllM)} }

// AddHash observes one key by its Hash64, letting callers share one hash
// across sketches.
func (h *HLL) AddHash(v uint64) {
	idx := v >> (64 - HLLPrecision)
	w := v << HLLPrecision
	var rank uint8
	if w == 0 {
		rank = 64 - HLLPrecision + 1
	} else {
		rank = uint8(bits.LeadingZeros64(w)) + 1
	}
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// Estimate returns the estimated number of distinct keys observed,
// using Ertl's improved raw estimator over the register histogram. The
// estimator is asymptotically unbiased across the whole cardinality
// range — in particular it has no bias hump at the classic
// linear-counting/raw-estimate crossover near 2.5m — so no empirical
// correction tables are needed and the 1.04/sqrt(m) error holds
// uniformly.
func (h *HLL) Estimate() float64 {
	// Histogram of register values: counts[k] = registers holding rank k.
	var counts [hllQ + 2]uint32
	for _, r := range h.reg {
		counts[r]++
	}
	m := float64(hllM)
	z := m * hllTau(1-float64(counts[hllQ+1])/m)
	for k := hllQ; k >= 1; k-- {
		z = 0.5 * (z + float64(counts[k]))
	}
	z += m * hllSigma(float64(counts[0])/m)
	return m * m / z / (2 * math.Ln2)
}

// hllSigma computes x + x^2 + 2x^4 + 4x^8 + ... , the linear-counting
// side of Ertl's estimator. Diverges (returns +Inf) at x = 1, i.e. when
// every register is still zero.
func hllSigma(x float64) float64 {
	//qpplint:ignore floateq x is counts[0]/m, exactly 1 only when every register is zero
	if x == 1 {
		return math.Inf(1)
	}
	y, z := 1.0, x
	for {
		x *= x
		prev := z
		z += x * y
		y += y
		//qpplint:ignore floateq fixed-point convergence: terminate when the float stops changing
		if z == prev {
			return z
		}
	}
}

// hllTau computes the saturated-register tail correction of Ertl's
// estimator.
func hllTau(x float64) float64 {
	//qpplint:ignore floateq x is a register-count ratio; the boundary cases are exact
	if x == 0 || x == 1 {
		return 0
	}
	y, z := 1.0, 1-x
	for {
		x = math.Sqrt(x)
		prev := z
		y *= 0.5
		d := 1 - x
		z -= d * d * y
		//qpplint:ignore floateq fixed-point convergence: terminate when the float stops changing
		if z == prev {
			return z / 3
		}
	}
}
