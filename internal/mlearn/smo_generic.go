package mlearn

import (
	"math"
	"math/bits"
)

// The SMO solver's two row passes in portable Go: the only passes off
// amd64 and on CPUs without AVX2, and the reference the kernels
// (smo_amd64.s) are held to.

// rowPassLevel names an implementation of the row passes: rowPass (set
// once at start-up from what the CPU has, and by tests) picks the one
// that runs.
type rowPassLevel int

const (
	passPortable rowPassLevel = iota // smo_generic.go
	passAVX2                         // four rows an instruction
	passAVX512                       // eight rows an instruction
)

// updateRowsGo subtracts wi*ki[t] + wj*kj[t] from every f[t] (each
// product rounded, then their sum: no fused multiply-add) and, comparing
// each row as soon as it is written in ascending order, finds the
// maximal violator of each class's I_up, the lowest index on ties, and
// the smallest f over each class's I_low. A zero minimum is reported as
// +0: which zero a scan meets first depends on its order, and the
// minimum is only compared with and subtracted from a maximum, which
// cannot tell.
func (s *smoSolver) updateRowsGo(ki, kj []float64, wi, wj float64) {
	l := s.l
	f, ki, kj := s.f[:l], ki[:l], kj[:l]
	ip, in := -1, -1
	gmaxP, gmaxN := math.Inf(-1), math.Inf(-1)
	gminP, gminN := math.Inf(1), math.Inf(1)
	upP, lowP, upN, lowN := s.upP, s.lowP, s.upN, s.lowN
	// Which test of a pair comes first only decides which branches the
	// CPU has to predict; this order measured fastest.
	for t := range f {
		ft := f[t] - (float64(wi*ki[t]) + float64(wj*kj[t]))
		f[t] = ft
		w, bit := t>>6, uint64(1)<<(t&63)
		if ft > gmaxP && upP[w]&bit != 0 {
			gmaxP, ip = ft, t
		}
		if upN[w]&bit != 0 && ft > gmaxN {
			gmaxN, in = ft, t+l
		}
		if ft < gminP && lowP[w]&bit != 0 {
			gminP = ft
		}
		if ft < gminN && lowN[w]&bit != 0 {
			gminN = ft
		}
	}
	s.ip, s.gmaxP, s.in, s.gmaxN = ip, gmaxP, in, gmaxN
	s.gminP, s.gminN = gminP+0, gminN+0
}

// secondOrderJGo picks j for the chosen dual index i (whose violation is
// gmax) among the rows of low, the I_low of the class whose rows start at
// off: the candidate with the largest second-order objective decrease,
// lowest index on ties, or -1. It also returns that objective.
func (s *smoSolver) secondOrderJGo(i int, gmax float64, low []uint64, off int) (int, float64) {
	const tau = 1e-12
	ki, f := s.k.Row(i-off), s.f
	j := -1
	objMin := math.Inf(1)
	for w, word := range low {
		for ; word != 0; word &= word - 1 {
			t := w<<6 | bits.TrailingZeros64(word)
			b := gmax - f[t]
			if b <= 0 {
				continue
			}
			// y_i y_t Q_it = K_it, and K_ii + K_tt = 2.
			quad := 2 - 2*ki[t]
			if quad <= 0 {
				quad = tau
			}
			if obj := -b * b / quad; obj < objMin {
				objMin, j = obj, t+off
			}
		}
	}
	return j, objMin
}
