//go:build !amd64

package mlearn

// Off amd64 the portable passes (smo_generic.go) are the row passes.

const cpuRowPass = passPortable

// rowPass is the test seam the amd64 build reads; here nothing reads it.
var rowPass = cpuRowPass

func (s *smoSolver) updateRows(ki, kj []float64, wi, wj float64) {
	s.updateRowsGo(ki, kj, wi, wj)
}

func (s *smoSolver) secondOrderJ(i int, gmax float64, low []uint64, off int) (int, float64) {
	return s.secondOrderJGo(i, gmax, low, off)
}
