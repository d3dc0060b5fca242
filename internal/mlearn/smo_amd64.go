package mlearn

// The SMO solver's two row passes as AVX2 kernels (smo_amd64.s), used
// when the CPU has AVX2 and the OS saves YMM state; otherwise the
// portable passes (smo_generic.go) run. Both give the same bits: the
// kernels make the portable passes' floating-point operations in the same
// order, and their four lanes are reduced here with the portable passes'
// tie rule, the lowest index.

// haveAVX2 reports what CPUID and XGETBV said at start-up.
var haveAVX2 = cpuHasAVX2()

// useAVX2 selects the kernels; tests clear it to run the portable passes.
var useAVX2 = haveAVX2

func cpuHasAVX2() bool

// smoLanes is what updateAVX2 leaves per lane: the largest f over each
// class's I_up with its row (-1 when the lane saw no member), and the
// smallest f over each class's I_low.
type smoLanes struct {
	gmaxP, gmaxN, gminP, gminN [4]float64
	ip, in                     [4]int
}

// smoPick is what selectAVX2 leaves per lane: the smallest second-order
// objective and its row (+Inf and -1 when the lane had no candidate).
type smoPick struct {
	obj [4]float64
	j   [4]int
}

// updateAVX2 is updateRowsGo's loop over len(f) rows, a multiple of 4.
//
//go:noescape
func updateAVX2(f, ki, kj []float64, wi, wj float64, upP, lowP, upN, lowN []uint64, out *smoLanes)

// selectAVX2 is secondOrderJGo's scan over len(f) rows, a multiple of 4.
//
//go:noescape
func selectAVX2(f, ki []float64, low []uint64, gmax float64, out *smoPick)

// updateRows subtracts wi*ki[t] + wj*kj[t] from every f[t] and finds the
// next maximal violators and I_low minima (see updateRowsGo).
func (s *smoSolver) updateRows(ki, kj []float64, wi, wj float64) {
	if !useAVX2 {
		s.updateRowsGo(ki, kj, wi, wj)
		return
	}
	l4 := cap(s.f)
	var out smoLanes
	updateAVX2(s.f[:l4], ki[:l4], kj[:l4], wi, wj, s.upP, s.lowP, s.upN, s.lowN, &out)
	s.gmaxP, s.ip = maxLaneAt(&out.gmaxP, &out.ip)
	s.gmaxN, s.in = maxLaneAt(&out.gmaxN, &out.in)
	if s.in >= 0 {
		s.in += s.l
	}
	s.gminP, s.gminN = minLane(&out.gminP), minLane(&out.gminN)
}

// secondOrderJ picks j for the dual index i among the rows of low (see
// secondOrderJGo).
func (s *smoSolver) secondOrderJ(i int, gmax float64, low []uint64, off int) (int, float64) {
	if !useAVX2 {
		return s.secondOrderJGo(i, gmax, low, off)
	}
	l4 := cap(s.f)
	var out smoPick
	selectAVX2(s.f[:l4], s.k.Row(i - off)[:l4], low, gmax, &out)
	objMin, j := minLaneAt(&out.obj, &out.j)
	if j >= 0 {
		j += off
	}
	return j, objMin
}

// maxLaneAt reduces four lane maxima to the largest, the lowest row on
// ties. A lane without a member holds (-Inf, -1), which never wins.
func maxLaneAt(v *[4]float64, at *[4]int) (float64, int) {
	best, row := v[0], at[0]
	for k := 1; k < 4; k++ {
		if v[k] > best || v[k] >= best && at[k] < row {
			best, row = v[k], at[k]
		}
	}
	return best, row
}

// minLaneAt reduces four lane minima to the smallest, the lowest row on
// ties. A lane without a candidate holds (+Inf, -1), which never wins.
func minLaneAt(v *[4]float64, at *[4]int) (float64, int) {
	best, row := v[0], at[0]
	for k := 1; k < 4; k++ {
		if v[k] < best || v[k] <= best && at[k] < row {
			best, row = v[k], at[k]
		}
	}
	return best, row
}

// minLane reduces four lane minima to the smallest, a zero as +0 (which
// zero a lane met first is not known here; see updateRowsGo).
func minLane(v *[4]float64) float64 {
	best := v[0]
	for _, x := range v[1:] {
		if x < best {
			best = x
		}
	}
	return best + 0
}
