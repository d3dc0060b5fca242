package mlearn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelRows are the row counts the kernel tests run: one to nine rows
// (either side of one 4-row and one 8-row block, and the AVX-512 kernels'
// 4-row tail alone), either side of one and two bitset words, either
// side of 72 (an 8-row block edge inside the second word) and a third
// word.
var kernelRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 67, 71, 72, 73, 130}

// kernelMasks are the index-set patterns of the kernel tests, as a
// function of the row.
var kernelMasks = []struct {
	name string
	in   func(t int, rng *rand.Rand) bool
}{
	{"empty", func(int, *rand.Rand) bool { return false }},
	{"full", func(int, *rand.Rand) bool { return true }},
	{"even", func(t int, _ *rand.Rand) bool { return t%2 == 0 }},
	{"odd", func(t int, _ *rand.Rand) bool { return t%2 == 1 }},
	{"random", func(_ int, rng *rand.Rand) bool { return rng.Intn(2) == 0 }},
}

// kernelValues are the f patterns of the kernel tests: plain draws; one
// value everywhere and three values over and over (ties inside a lane,
// across lanes and across blocks); signed zeros; and values 1e-200 apart,
// whose second-order objective underflows to -0.
var kernelValues = []struct {
	name string
	f    func(t int, rng *rand.Rand) float64
}{
	{"random", func(_ int, rng *rand.Rand) float64 { return rng.NormFloat64() }},
	{"equal", func(int, *rand.Rand) float64 { return 0.5 }},
	{"three values", func(_ int, rng *rand.Rand) float64 { return float64(rng.Intn(3)) }},
	{"signed zeros", func(_ int, rng *rand.Rand) float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }},
	{"underflow", func(_ int, rng *rand.Rand) float64 { return float64(rng.Intn(3)-1) * 1e-200 }},
}

// kernelSolver builds the row passes' state for l rows: a kernel matrix
// with entries in [0, 1], exact ones (a duplicated row: 2 - 2K is 0) and
// entries just above one (2 - 2K is negative), f from values, the four
// index sets from the masks, rotated so that each set meets each pattern.
// The padding (K's 3 spare floats, f's slots l to l4-1) holds values that
// would win every comparison if a kernel took a padded row.
func kernelSolver(l, mask int, values func(int, *rand.Rand) float64, seed int64) *smoSolver {
	rng := rand.New(rand.NewSource(seed))
	l4 := (l + 3) &^ 3
	k := &Matrix{Rows: l, Cols: l, Data: make([]float64, l*l, l*l+3)}
	for i := range k.Data {
		switch rng.Intn(8) {
		case 0:
			k.Data[i] = 1
		case 1:
			k.Data[i] = math.Nextafter(1, 2)
		default:
			k.Data[i] = rng.Float64()
		}
	}
	f := make([]float64, l, l4)
	for t := range f {
		f[t] = values(t, rng)
	}
	for t := l; t < l4; t++ {
		f[:l4][t] = math.Copysign(1e300, float64(t%2)-0.5)
	}
	words := (l + 63) / 64
	s := &smoSolver{l: l, k: k, f: f, c: 1, tol: 1e-3}
	sets := []*[]uint64{&s.upP, &s.lowP, &s.upN, &s.lowN}
	for n, set := range sets {
		*set = make([]uint64, words)
		in := kernelMasks[(mask+n)%len(kernelMasks)].in
		for t := 0; t < l; t++ {
			if in(t, rng) {
				(*set)[t>>6] |= 1 << (t & 63)
			}
		}
	}
	return s
}

func (s *smoSolver) clone() *smoSolver {
	c := *s
	c.k = &Matrix{Rows: s.l, Cols: s.l, Data: append(make([]float64, 0, cap(s.k.Data)), s.k.Data[:cap(s.k.Data)]...)[:len(s.k.Data)]}
	c.f = append(make([]float64, 0, cap(s.f)), s.f[:cap(s.f)]...)[:len(s.f)]
	return &c
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSMOKernelsMatchPortable holds every row pass the CPU has to the
// portable passes bit for bit: every f, both maximal violators and both
// I_low minima after a step, and the j and objective of the second-order
// scan of either class, over row counts around the block and word sizes,
// empty, full and alternating index sets, ties, signed zeros, underflow
// and a non-positive 2 - 2K.
func TestSMOKernelsMatchPortable(t *testing.T) {
	forEachRowPass(t, requireKernelsMatchPortable)
}

func requireKernelsMatchPortable(t *testing.T) {
	pass := rowPass // the subtest's, set by forEachRowPass
	var cases int
	for _, l := range kernelRows {
		for mask := range kernelMasks {
			for _, vals := range kernelValues {
				for step := 0; step < 3; step++ {
					name := fmt.Sprintf("l=%d masks from %s, f %s, step %d", l, kernelMasks[mask].name, vals.name, step)
					seed := int64(l*1000 + mask*100 + step)
					port := kernelSolver(l, mask, vals.f, seed)
					kern := port.clone()
					// Step 0 leaves f as it is, so its ties stay ties.
					rng := rand.New(rand.NewSource(seed))
					ri, rj := rng.Intn(l), rng.Intn(l)
					var wi, wj float64
					if step > 0 {
						wi, wj = rng.NormFloat64(), rng.NormFloat64()
					}
					rowPass = passPortable
					port.updateRows(port.k.Row(ri), port.k.Row(rj), wi, wj)
					rowPass = pass
					kern.updateRows(kern.k.Row(ri), kern.k.Row(rj), wi, wj)
					requireSameRowPass(t, name, port, kern)
					for _, c := range []struct {
						i    int
						gmax float64
						low  func(*smoSolver) []uint64
						off  int
					}{
						{max(port.ip, 0), port.gmaxP, func(s *smoSolver) []uint64 { return s.lowP }, 0},
						{max(port.in, l), port.gmaxN, func(s *smoSolver) []uint64 { return s.lowN }, l},
						{rng.Intn(l), 1e-200, func(s *smoSolver) []uint64 { return s.lowP }, 0},
						{l + rng.Intn(l), 2e-200, func(s *smoSolver) []uint64 { return s.lowN }, l},
					} {
						rowPass = passPortable
						pj, pobj := port.secondOrderJ(c.i, c.gmax, c.low(port), c.off)
						rowPass = pass
						kj, kobj := kern.secondOrderJ(c.i, c.gmax, c.low(kern), c.off)
						if pj != kj || !sameBits(pobj, kobj) {
							t.Fatalf("%s: j scan for i=%d gmax=%v: portable (%d, %v), kernel (%d, %v)", name, c.i, c.gmax, pj, pobj, kj, kobj)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d second-order scans compared", cases)
}

func requireSameRowPass(t *testing.T, name string, port, kern *smoSolver) {
	t.Helper()
	for r := range port.f {
		if !sameBits(port.f[r], kern.f[r]) {
			t.Fatalf("%s: f[%d] is %v, the portable pass wrote %v", name, r, kern.f[r], port.f[r])
		}
	}
	if port.ip != kern.ip || !sameBits(port.gmaxP, kern.gmaxP) || port.in != kern.in || !sameBits(port.gmaxN, kern.gmaxN) {
		t.Fatalf("%s: violators (%d %v, %d %v), the portable pass found (%d %v, %d %v)",
			name, kern.ip, kern.gmaxP, kern.in, kern.gmaxN, port.ip, port.gmaxP, port.in, port.gmaxN)
	}
	if !sameBits(port.gminP, kern.gminP) || !sameBits(port.gminN, kern.gminN) {
		t.Fatalf("%s: I_low minima (%v, %v), the portable pass found (%v, %v)", name, kern.gminP, kern.gminN, port.gminP, port.gminN)
	}
}

// benchJ keeps the benchmarked scans' results live.
var benchJ int

// BenchmarkSMORowPasses times each row pass the CPU has on its own, at
// fit sizes a training pass runs (its fits average about 48 rows and
// reach 112) and at 400: one update of every f (a zero step, so f stays
// as it is) and one second-order scan of an alternating I_low.
func BenchmarkSMORowPasses(b *testing.B) {
	for _, pass := range rowPasses(b) {
		for _, l := range []int{48, 112, 400} {
			s := kernelSolver(l, 4, kernelValues[0].f, int64(l))
			zero := make([]float64, cap(s.f))
			b.Run(fmt.Sprintf("%s/update/l=%d", rowPassNames[pass], l), func(b *testing.B) {
				useRowPass(b, pass)
				for i := 0; i < b.N; i++ {
					s.updateRows(zero, zero, 0, 0)
				}
			})
			b.Run(fmt.Sprintf("%s/select/l=%d", rowPassNames[pass], l), func(b *testing.B) {
				useRowPass(b, pass)
				for i := 0; i < b.N; i++ {
					benchJ, _ = s.secondOrderJ(l, 1, s.lowN, l)
				}
			})
		}
	}
}
