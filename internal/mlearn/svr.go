package mlearn

import (
	"fmt"
	"math"
)

// SVR is a nu-support-vector regression model with the RBF kernel
// K(u,v) = exp(-gamma * ||u-v||^2): libsvm's "nu-SVR", the model the paper
// trains at plan and sub-plan level. nu bounds the fraction of support
// vectors and errors, and the tube width is learned. Fit runs a
// sequential minimal optimization (SMO) solver following libsvm's
// Solver_NU: second-order working-set selection, the pair restricted to
// one sign class.
type SVR struct {
	C       float64 // regularization parameter (default 1)
	Nu      float64 // nu parameter (default 0.5)
	Gamma   float64 // RBF gamma; <=0 means 1/num_features
	Tol     float64 // KKT violation tolerance (default 1e-3)
	MaxIter int     // iteration cap (default derived from size)

	sv        *Matrix   // support vectors (rows)
	lastIters int       // SMO iterations used by the last Fit
	lastCap   int       // iteration cap the last Fit ran under
	coef      []float64 // alpha_i - alpha_i^* per support vector
	b         float64   // bias term
	gamma     float64   // resolved gamma actually used
}

// NewNuSVR returns a nu-SVR, the configuration the paper reports for
// plan-level models.
func NewNuSVR(c, nu float64) *SVR {
	return &SVR{C: c, Nu: nu}
}

func (s *SVR) kernel(u, v []float64) float64 {
	var d2 float64
	for i := range u {
		d := u[i] - v[i]
		d2 += d * d
	}
	return math.Exp(-s.gamma * d2)
}

// Fit trains the model on x (n samples by d features) and targets y.
func (s *SVR) Fit(x *Matrix, y []float64) error {
	l := x.Rows
	if l != len(y) {
		return fmt.Errorf("mlearn: svr: %d rows but %d targets", l, len(y))
	}
	if l == 0 {
		return fmt.Errorf("mlearn: svr: empty training set")
	}
	if s.C <= 0 {
		s.C = 1
	}
	if s.Nu <= 0 || s.Nu > 1 {
		s.Nu = 0.5
	}
	if s.Tol <= 0 {
		s.Tol = 1e-3
	}
	s.gamma = s.Gamma
	if s.gamma <= 0 {
		s.gamma = 1.0 / float64(max(1, x.Cols))
	}

	sol := s.dual(x, y)
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = max(10000, 200*l)
	}
	s.lastIters, s.lastCap = sol.solve(maxIter), maxIter

	// Collapse to alpha - alpha* and keep only support vectors.
	var svRows [][]float64
	var coef []float64
	for i := 0; i < l; i++ {
		a := sol.alpha[i] - sol.alpha[i+l]
		if math.Abs(a) > 1e-12 {
			svRows = append(svRows, append([]float64(nil), x.Row(i)...))
			coef = append(coef, a)
		}
	}
	sv, err := MatrixFromRows(svRows)
	if err != nil {
		return err
	}
	s.sv, s.coef, s.b = sv, coef, -sol.rho()
	return nil
}

// dual builds libsvm's 2l-variable dual of the nu-SVR problem x, y under
// s's resolved hyperparameters, at its starting point: row t has alpha[t]
// (sign +1) and alpha[t+l] (sign -1), both min(C, what is left of
// C*nu*l/2), p = (-y, y) and Q[i][j] = sign_i sign_j K[i%l][j%l].
func (s *SVR) dual(x *Matrix, y []float64) smoSolver {
	l := x.Rows
	// Precompute the l x l kernel matrix; training sets here are small
	// (hundreds of rows), so the dense matrix is cheap. The row passes
	// run over l4 = l rounded up to a multiple of 4 rows (smo_amd64.s),
	// so the last row is followed by 3 spare floats and f has capacity l4.
	l4 := (l + 3) &^ 3
	k := &Matrix{Rows: l, Cols: l, Data: make([]float64, l*l, l*l+3)}
	for i := 0; i < l; i++ {
		ri := x.Row(i)
		for j := i; j < l; j++ {
			v := s.kernel(ri, x.Row(j))
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	alpha := make([]float64, 2*l)
	sum := s.C * s.Nu * float64(l) / 2
	for i := 0; i < l; i++ {
		a := math.Min(sum, s.C)
		alpha[i], alpha[i+l] = a, a
		sum -= a
	}

	// The gradient G = p + Q*alpha, each entry summed over the nonzero
	// alpha in ascending index order. Only the sign -1 half is kept: the
	// two halves are sums of exactly negated terms in the same order, and
	// IEEE rounding is sign-symmetric, so G[t] = -G[t+l] at every
	// iteration. (As numbers: an exact zero may carry either sign in
	// either half. The selection and the step only compare and subtract,
	// which cannot tell; rho's bound midpoint could, for a class with no
	// free variable whose bounds are both exact zeros.)
	f := make([]float64, l, l4)
	for t := 0; t < l; t++ {
		kt := k.Row(t)
		g := y[t]
		for j, a := range alpha[:l] {
			if a != 0 {
				g += a * -kt[j]
			}
		}
		for j, a := range alpha[l:] {
			if a != 0 {
				g += a * kt[j]
			}
		}
		f[t] = g
	}

	words := (l + 63) / 64
	sets := make([]uint64, 4*words)
	sol := smoSolver{
		l: l, k: k, alpha: alpha, f: f, c: s.C, tol: s.Tol,
		upP:  sets[:words],
		lowP: sets[words : 2*words],
		upN:  sets[2*words : 3*words],
		lowN: sets[3*words:],
	}
	for v := range alpha {
		sol.place(v)
	}
	// A zero step along zero rows leaves every f[t] as it is, to the bit
	// (f[t] - (0 + 0) is f[t], -0 included), and finds the first maximal
	// violators and I_low minima.
	zero := make([]float64, l4)
	sol.updateRows(zero, zero, 0, 0)
	return sol
}

// Predict returns the SVR output for one feature row.
func (s *SVR) Predict(row []float64) float64 {
	out := s.b
	for i, c := range s.coef {
		out += c * s.kernel(s.sv.Row(i), row)
	}
	return out
}

// NumSupportVectors reports the number of support vectors kept after Fit.
func (s *SVR) NumSupportVectors() int { return len(s.coef) }

// Iterations reports the SMO iterations the last Fit used (0 for a model
// that was loaded, not fitted).
func (s *SVR) Iterations() int { return s.lastIters }

// smoSolver carries the state of Solver_NU on the 2l-variable dual.
//
// Every quantity the selection and the step read is -y*G, which is the
// same number for row t in both sign classes: -G[t] for sign +1 and
// +G[t+l] for sign -1. f holds it once per row (bit for bit the sign -1
// half of G). alpha is tested against 0 and C only where it changes: I_up
// and I_low of each class are bitsets over the rows, updated at the two
// indices a step moves, and scanned in ascending row order so candidates
// and ties are met as a scan over every row meets them. The kernel is RBF,
// so K_tt = exp(-gamma*0) = 1 and no diagonal is kept.
type smoSolver struct {
	l     int
	k     *Matrix   // l x l RBF kernel matrix, 1 on the diagonal
	alpha []float64 // 2l dual variables: alpha[t] sign +1, alpha[t+l] sign -1
	f     []float64 // -y*G per row, shared by both sign classes; capacity l4
	c     float64
	tol   float64

	// I_up and I_low as row bitsets (bit t%64 of word t/64). Sign +1:
	// up means alpha[t] < C, low alpha[t] > 0. Sign -1: up means
	// alpha[t+l] > 0, low alpha[t+l] < C.
	upP, lowP, upN, lowN []uint64

	// The maximal violator in I_up of each class for the current
	// (alpha, f): its dual index (-1 when the class has no member of
	// I_up) and its -y*G, lowest index on ties; and the smallest -y*G
	// over each class's I_low (+Inf when it is empty).
	ip, in       int
	gmaxP, gmaxN float64
	gminP, gminN float64
}

// solve runs SMO until no violating pair is left, a step makes no
// progress, or maxIter iterations are spent; it returns the iterations
// used (maxIter itself when the cap stopped it).
func (s *smoSolver) solve(maxIter int) int {
	for iter := 0; iter < maxIter; iter++ {
		i, j := s.selectWorkingSet()
		if i < 0 || !s.update(i, j) {
			return iter
		}
	}
	return maxIter
}

// place records dual variable v's membership of I_up and I_low.
func (s *smoSolver) place(v int) {
	a, c := s.alpha[v], s.c
	up, low := s.upP, s.lowP
	isUp, isLow := a < c, a > 0
	if v >= s.l {
		v -= s.l
		up, low = s.upN, s.lowN
		isUp, isLow = a > 0, a < c
	}
	w, bit := v>>6, uint64(1)<<(v&63)
	up[w] &^= bit
	low[w] &^= bit
	if isUp {
		up[w] |= bit
	}
	if isLow {
		low[w] |= bit
	}
}

// update takes the analytic step on the pair (i, j) of dual indices, both
// in one sign class, clips it to the box, and brings f, the index sets,
// the maximal violators and the I_low minima up to date. It reports false
// when the step moved neither variable (the solver is stuck and stops).
func (s *smoSolver) update(i, j int) bool {
	const tau = 1e-12
	l := s.l
	ri, rj := i%l, j%l
	ai, aj := s.alpha[i], s.alpha[j]
	// K_ii = K_jj = exp(-gamma*0) = 1.
	quad := 2 - 2*s.k.At(ri, rj)
	if quad <= 0 {
		quad = tau
	}
	// delta = (G[i] - G[j]) / quad, where G = f on sign -1 rows and -f on
	// sign +1 rows: the pair violates, so the difference is nonzero and
	// the same float either way.
	sign := -1.0
	delta := (s.f[ri] - s.f[rj]) / quad
	if i < l {
		sign = 1
		delta = (s.f[rj] - s.f[ri]) / quad
	}
	sum := ai + aj
	s.alpha[i] -= delta
	s.alpha[j] += delta
	if sum > s.c {
		if s.alpha[i] > s.c {
			s.alpha[i] = s.c
			s.alpha[j] = sum - s.c
		}
	} else {
		if s.alpha[j] < 0 {
			s.alpha[j] = 0
			s.alpha[i] = sum
		}
	}
	if sum > s.c {
		if s.alpha[j] > s.c {
			s.alpha[j] = s.c
			s.alpha[i] = sum - s.c
		}
	} else {
		if s.alpha[i] < 0 {
			s.alpha[i] = 0
			s.alpha[j] = sum
		}
	}
	di, dj := s.alpha[i]-ai, s.alpha[j]-aj
	if di == 0 && dj == 0 {
		return false
	}
	s.place(i)
	s.place(j)
	// G[t+l] moves by Q[t+l][i] di + Q[t+l][j] dj, and
	// Q[t+l][i] = -sign_i K[t][i%l].
	s.updateRows(s.k.Row(ri), s.k.Row(rj), sign*di, sign*dj)
	return true
}

// selectWorkingSet returns the next working pair of dual indices using
// libsvm's second-order selection (WSS2) within each sign class, or
// (-1, -1) on convergence: per class, i is the maximal violator in I_up
// and j minimizes the quadratic objective decrease among the violating
// members of I_low; the class with the larger violation wins. A class has
// a violating member of I_low (a j) exactly when its I_low minimum is
// below its I_up maximum, so the minima the last gradient pass found
// decide the class and only the winner's I_low is scanned.
func (s *smoSolver) selectWorkingSet() (int, int) {
	vp, vn := math.Inf(-1), math.Inf(-1)
	if s.ip >= 0 && s.gminP < s.gmaxP {
		vp = s.gmaxP - s.gminP
	}
	if s.in >= 0 && s.gminN < s.gmaxN {
		vn = s.gmaxN - s.gminN
	}
	if math.Max(vp, vn) < s.tol {
		return -1, -1
	}
	if vp >= vn {
		j, _ := s.secondOrderJ(s.ip, s.gmaxP, s.lowP, 0)
		return s.ip, j
	}
	j, _ := s.secondOrderJ(s.in, s.gmaxN, s.lowN, s.l)
	return s.in, j
}

// rho computes libsvm's Solver_NU rho (calculate_rho); the regression
// bias is b = -rho.
func (s *smoSolver) rho() float64 {
	l := s.l
	r1 := s.classRho(s.alpha[:l], -1)
	r2 := s.classRho(s.alpha[l:], 1)
	return (r1 - r2) / 2
}

// classRho is one class's half of rho: the mean G over its free
// variables, or the midpoint of the bounds the variables at 0 and at C
// put on it when none is free. sign turns f into the class's G.
func (s *smoSolver) classRho(alpha []float64, sign float64) float64 {
	var nFree int
	var sum float64
	ub, lb := math.Inf(1), math.Inf(-1)
	for t, a := range alpha {
		g := sign * s.f[t]
		switch {
		case a >= s.c:
			lb = math.Max(lb, g)
		case a <= 0:
			ub = math.Min(ub, g)
		default:
			nFree++
			sum += g
		}
	}
	if nFree > 0 {
		return sum / float64(nFree)
	}
	return (ub + lb) / 2
}
