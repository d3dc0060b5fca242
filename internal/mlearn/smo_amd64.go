package mlearn

// The SMO solver's two row passes as AVX-512 and AVX2 kernels
// (smo_amd64.s), the widest the CPU has and the OS saves the registers
// of; otherwise the portable passes (smo_generic.go) run. All give the
// same bits: the kernels make the portable passes' floating-point
// operations in the same order, and fold their lanes to one answer with
// the portable passes' tie rule, the lowest index.

// cpuRowPass is the widest row pass CPUID and XGETBV allowed at start-up.
var cpuRowPass = cpuRowPassLevel()

// rowPass selects the row passes; tests lower it to run the others.
var rowPass = cpuRowPass

// cpuRowPassLevel reads CPUID leaves 1 and 7 and XCR0. AVX2 wants OSXSAVE,
// AVX and AVX2, and the OS saving XMM and YMM state (XCR0 bits 1-2).
// AVX-512 wants all of that, AVX512F and AVX512DQ (leaf 7 EBX bits
// 16-17), and the OS saving opmask and ZMM state too (XCR0 bits 5-7).
func cpuRowPassLevel() rowPassLevel {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return passPortable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return passPortable
	}
	xcr0 := xgetbv0()
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2, avx512f, avx512dq = 1 << 5, 1 << 16, 1 << 17
	if xcr0&0x6 != 0x6 || ebx7&avx2 == 0 {
		return passPortable
	}
	if xcr0&0xe6 != 0xe6 || ebx7&(avx512f|avx512dq) != avx512f|avx512dq {
		return passAVX2
	}
	return passAVX512
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0; only valid when CPUID says OSXSAVE.
func xgetbv0() uint32

// The kernels run updateRowsGo's loop and secondOrderJGo's scan over
// len(f) rows, a multiple of 4, and return the pass's answer: the I_up
// maxima with their rows (-1 when the class has no member), the I_low
// minima (+0 for a zero), and the least second-order objective with its
// row (-1 when no row is a candidate).

//go:noescape
func updateAVX512(f, ki, kj []float64, wi, wj float64, upP, lowP, upN, lowN []uint64) (gmaxP float64, ip int, gmaxN float64, in int, gminP, gminN float64)

//go:noescape
func updateAVX2(f, ki, kj []float64, wi, wj float64, upP, lowP, upN, lowN []uint64) (gmaxP float64, ip int, gmaxN float64, in int, gminP, gminN float64)

//go:noescape
func selectAVX512(f, ki []float64, low []uint64, gmax float64) (obj float64, j int)

//go:noescape
func selectAVX2(f, ki []float64, low []uint64, gmax float64) (obj float64, j int)

// updateRows subtracts wi*ki[t] + wj*kj[t] from every f[t] and finds the
// next maximal violators and I_low minima (see updateRowsGo).
func (s *smoSolver) updateRows(ki, kj []float64, wi, wj float64) {
	l4 := cap(s.f)
	switch rowPass {
	case passAVX512:
		s.gmaxP, s.ip, s.gmaxN, s.in, s.gminP, s.gminN = updateAVX512(s.f[:l4], ki[:l4], kj[:l4], wi, wj, s.upP, s.lowP, s.upN, s.lowN)
	case passAVX2:
		s.gmaxP, s.ip, s.gmaxN, s.in, s.gminP, s.gminN = updateAVX2(s.f[:l4], ki[:l4], kj[:l4], wi, wj, s.upP, s.lowP, s.upN, s.lowN)
	default:
		s.updateRowsGo(ki, kj, wi, wj)
		return
	}
	if s.in >= 0 {
		s.in += s.l
	}
}

// secondOrderJ picks j for the dual index i among the rows of low (see
// secondOrderJGo).
func (s *smoSolver) secondOrderJ(i int, gmax float64, low []uint64, off int) (int, float64) {
	l4 := cap(s.f)
	var objMin float64
	var j int
	switch rowPass {
	case passAVX512:
		objMin, j = selectAVX512(s.f[:l4], s.k.Row(i - off)[:l4], low, gmax)
	case passAVX2:
		objMin, j = selectAVX2(s.f[:l4], s.k.Row(i - off)[:l4], low, gmax)
	default:
		return s.secondOrderJGo(i, gmax, low, off)
	}
	if j >= 0 {
		j += off
	}
	return j, objMin
}
