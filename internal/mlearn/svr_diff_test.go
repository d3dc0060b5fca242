package mlearn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// smoProblem is one seeded regression problem for the solver
// differential test.
type smoProblem struct {
	name    string
	svr     SVR
	x       *Matrix
	y       []float64
	maxIter int
}

// genSMOProblem draws problem number seed. The shapes rotate through the
// cases the selection's tie-breaking and early exits depend on: l = 1 and
// 2, duplicated rows (equal kernel rows, so equal gradients and equal
// second-order gains), constant targets, targets on a coarse grid, and a
// plain random draw.
func genSMOProblem(seed int64, kind SVRKind) smoProblem {
	rng := rand.New(rand.NewSource(seed))
	shape := seed % 6
	l := 3 + rng.Intn(38)
	switch shape {
	case 0:
		l = 1
	case 1:
		l = 2
	}
	d := 1 + rng.Intn(5)
	x := NewMatrix(l, d)
	y := make([]float64, l)
	for i := 0; i < l; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = rng.NormFloat64()
	}
	name := "random"
	switch shape {
	case 0:
		name = "l=1"
	case 1:
		name = "l=2"
	case 2:
		name = "duplicate rows"
		// Every row after the first third repeats an earlier one, target
		// included for half of them.
		for i := l/3 + 1; i < l; i++ {
			src := rng.Intn(l/3 + 1)
			copy(x.Row(i), x.Row(src))
			if rng.Intn(2) == 0 {
				y[i] = y[src]
			}
		}
	case 3:
		name = "constant target"
		for i := range y {
			y[i] = 0.75
		}
	case 4:
		name = "grid targets"
		for i := range y {
			y[i] = float64(rng.Intn(3))
		}
	}
	p := smoProblem{
		name: fmt.Sprintf("seed %d kind %d %s l=%d", seed, kind, name, l),
		svr: SVR{
			Kind:    kind,
			Kernel:  KernelRBF,
			C:       []float64{0.5, 1, 10, 100}[rng.Intn(4)],
			Epsilon: []float64{0.01, 0.1, 0.5}[rng.Intn(3)],
			Nu:      []float64{0.2, 0.5, 0.9}[rng.Intn(3)],
			Tol:     1e-3,
		},
		x: x, y: y,
	}
	if rng.Intn(4) == 0 {
		p.svr.Kernel = KernelLinear
	}
	p.svr.gamma = 1 / float64(d)
	p.maxIter = max(10000, 200*l)
	return p
}

// solvers returns the production solver and the reference solver at the
// same starting point of p's dual problem.
func (p *smoProblem) solvers() (*smoSolver, *refSolver) {
	sol := p.svr.dual(p.x, p.y)
	ref := &refSolver{
		n: sol.n, l: sol.l, k: sol.k,
		sign:  sol.sign,
		p:     sol.p,
		alpha: append([]float64(nil), sol.alpha...),
		c:     sol.c, tol: sol.tol, nu: sol.nu,
	}
	return &sol, ref
}

func sameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameSolve runs both solvers on p and requires the same pair
// sequence, iteration count, final alpha, gradient and rho, to the bit.
func requireSameSolve(t *testing.T, p smoProblem) (iters int) {
	t.Helper()
	// Pair sequence: the production solver stepped by hand, exactly as
	// solve steps it.
	stepped, ref := p.solvers()
	want := ref.solve(p.maxIter)
	var pairs [][2]int
	stepped.init()
	for len(pairs) < p.maxIter {
		i, j := stepped.selectWorkingSet()
		if i < 0 {
			break
		}
		pairs = append(pairs, [2]int{i, j})
		if !stepped.update(i, j) {
			break
		}
	}
	if len(pairs) != len(ref.pairs) {
		t.Fatalf("%s: %d pairs selected, reference selected %d", p.name, len(pairs), len(ref.pairs))
	}
	for n := range pairs {
		if pairs[n] != ref.pairs[n] {
			t.Fatalf("%s: pair %d is %v, reference chose %v", p.name, n, pairs[n], ref.pairs[n])
		}
	}

	sol, _ := p.solvers()
	got := sol.solve(p.maxIter)
	if got != want {
		t.Fatalf("%s: %d iterations, reference used %d", p.name, got, want)
	}
	if !sameBitsSlice(sol.alpha, ref.alpha) {
		t.Fatalf("%s: final alpha differs from the reference", p.name)
	}
	if !sameBitsSlice(sol.g, ref.g) {
		t.Fatalf("%s: final gradient differs from the reference", p.name)
	}
	if !sameBitsSlice(stepped.alpha, ref.alpha) {
		t.Fatalf("%s: stepping by hand and solve end at different alpha", p.name)
	}
	// rho was not touched by the change; it reads alpha and g, so the
	// reference's value is rho over the reference's final state.
	refState := *sol
	refState.alpha, refState.g = ref.alpha, ref.g
	if a, b := sol.rho(), refState.rho(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: rho %v, reference %v", p.name, a, b)
	}
	return got
}

// TestSMOMatchesReferenceSolver is the differential test of the fused
// working-set scan: on seeded problems of both formulations the solver
// must walk the reference solver's path step for step, also on the ones
// that never converge and stop at the default iteration cap.
func TestSMOMatchesReferenceSolver(t *testing.T) {
	for _, kind := range []SVRKind{EpsilonSVR, NuSVR} {
		var worked, capped int
		for seed := int64(0); seed < 240; seed++ {
			p := genSMOProblem(seed, kind)
			switch iters := requireSameSolve(t, p); {
			case iters == p.maxIter:
				capped++
			case iters > 0:
				worked++
			}
		}
		if worked < 100 || capped == 0 {
			t.Fatalf("kind %d: %d problems iterated and converged, %d ran into the cap; the draw must cover both", kind, worked, capped)
		}
	}
}

// TestSVRReportsCappedFit pins Iterations and Converged: a fit that ran
// into MaxIter says so, the same fit left alone converges.
func TestSVRReportsCappedFit(t *testing.T) {
	p := genSMOProblem(5, NuSVR)
	free := NewNuSVR(p.svr.C, p.svr.Nu)
	if err := free.Fit(p.x, p.y); err != nil {
		t.Fatal(err)
	}
	if !free.Converged() || free.Iterations() < 8 {
		t.Fatalf("uncapped fit: converged=%v after %d iterations", free.Converged(), free.Iterations())
	}
	capped := NewNuSVR(p.svr.C, p.svr.Nu)
	capped.MaxIter = free.Iterations() / 2
	if err := capped.Fit(p.x, p.y); err != nil {
		t.Fatal(err)
	}
	if capped.Converged() || capped.Iterations() != capped.MaxIter {
		t.Fatalf("fit capped at %d: converged=%v after %d iterations", capped.MaxIter, capped.Converged(), capped.Iterations())
	}
	if math.IsNaN(capped.Predict(p.x.Row(0))) {
		t.Fatal("a capped fit must still predict")
	}
	if (&SVR{}).Converged() {
		t.Fatal("a model that was never fitted reports convergence")
	}
}
