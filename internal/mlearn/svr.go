package mlearn

import (
	"fmt"
	"math"
)

// KernelKind selects the kernel function used by SVR.
type KernelKind int

const (
	// KernelRBF is the Gaussian radial basis function kernel
	// K(u,v) = exp(-gamma * ||u-v||^2).
	KernelRBF KernelKind = iota
	// KernelLinear is the dot-product kernel K(u,v) = u . v.
	KernelLinear
)

// SVRKind selects the support-vector regression formulation.
type SVRKind int

const (
	// EpsilonSVR is the classic epsilon-insensitive formulation.
	EpsilonSVR SVRKind = iota
	// NuSVR is the nu-parameterized formulation the paper uses
	// (libsvm's "nu-SVR"); nu bounds the fraction of support vectors
	// and errors, and the tube width epsilon is learned.
	NuSVR
)

// SVR is a support-vector regression model trained with a sequential
// minimal optimization (SMO) solver following libsvm's algorithm
// (maximal-violating-pair working-set selection; the Solver_NU pair
// restriction for nu-SVR).
type SVR struct {
	Kind    SVRKind
	Kernel  KernelKind
	C       float64 // regularization parameter (default 1)
	Epsilon float64 // tube width for EpsilonSVR (default 0.1)
	Nu      float64 // nu parameter for NuSVR (default 0.5)
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

// NewNuSVR returns a nu-SVR with RBF kernel, matching the configuration
// the paper reports for plan-level models.
func NewNuSVR(c, nu float64) *SVR {
	return &SVR{Kind: NuSVR, Kernel: KernelRBF, C: c, Nu: nu}
}

// NewEpsilonSVR returns an epsilon-SVR with RBF kernel.
func NewEpsilonSVR(c, epsilon float64) *SVR {
	return &SVR{Kind: EpsilonSVR, Kernel: KernelRBF, C: c, Epsilon: epsilon}
}

func (s *SVR) kernel(u, v []float64) float64 {
	switch s.Kernel {
	case KernelLinear:
		return Dot(u, v)
	default:
		var d2 float64
		for i := range u {
			d := u[i] - v[i]
			d2 += d * d
		}
		return math.Exp(-s.gamma * d2)
	}
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
	if s.Epsilon <= 0 {
		s.Epsilon = 0.1
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
		maxIter = max(10000, 100*sol.n)
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

// dual builds the 2l-variable dual problem of x, y under s's resolved
// hyperparameters, at its starting point.
func (s *SVR) dual(x *Matrix, y []float64) smoSolver {
	l := x.Rows
	// Precompute the l x l kernel matrix; training sets here are small
	// (hundreds of rows), so the dense matrix is cheap.
	k := NewMatrix(l, l)
	for i := 0; i < l; i++ {
		ri := x.Row(i)
		for j := i; j < l; j++ {
			v := s.kernel(ri, x.Row(j))
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}

	// Build the 2l-variable dual problem as in libsvm's SVR_Q: index
	// i < l carries sign +1 (alpha), index i >= l sign -1 (alpha*).
	n := 2 * l
	sign := make([]int8, n)
	p := make([]float64, n)
	alpha := make([]float64, n)
	switch s.Kind {
	case EpsilonSVR:
		for i := 0; i < l; i++ {
			sign[i], sign[i+l] = 1, -1
			p[i] = s.Epsilon - y[i]
			p[i+l] = s.Epsilon + y[i]
		}
	case NuSVR:
		sum := s.C * s.Nu * float64(l) / 2
		for i := 0; i < l; i++ {
			a := math.Min(sum, s.C)
			alpha[i], alpha[i+l] = a, a
			sum -= a
			sign[i], sign[i+l] = 1, -1
			p[i] = -y[i]
			p[i+l] = y[i]
		}
	}

	return smoSolver{
		n:     n,
		l:     l,
		k:     k,
		sign:  sign,
		p:     p,
		alpha: alpha,
		c:     s.C,
		tol:   s.Tol,
		nu:    s.Kind == NuSVR,
	}
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

// Converged reports whether the last Fit stopped by itself (no pair
// violating the KKT conditions by Tol or more was left, or a step could
// not move) and not because it ran into the iteration cap: MaxIter, or
// max(10000, 200 per row) by default. A capped fit is still a usable
// model, only not the optimum. False for a model that was loaded, not
// fitted.
func (s *SVR) Converged() bool { return s.lastIters < s.lastCap }

// smoSolver carries the state of the 2l-variable SMO optimization.
type smoSolver struct {
	n     int       // number of dual variables (2l)
	l     int       // number of training rows
	k     *Matrix   // l x l kernel matrix
	kd    []float64 // kernel diagonal
	sign  []int8    // +1 / -1 per dual variable
	p     []float64
	alpha []float64
	g     []float64 // gradient
	c     float64
	tol   float64
	nu    bool // use Solver_NU pair selection / rho

	// The maximal violator in I_up of each sign class for the current
	// (alpha, g): its index (-1 when the class has no member of I_up) and
	// its -y*G. scanViolators sets them once after the gradient is
	// initialized; from then on update keeps them current inside its
	// gradient loop, so selecting a pair never re-reads the gradient for
	// them. Ties go to the lowest index, as a scan in ascending t gives.
	upP, upN     int
	gmaxP, gmaxN float64
}

// q returns Q[i][j] = sign_i * sign_j * K[i%l][j%l].
func (s *smoSolver) q(i, j int) float64 {
	v := s.k.At(i%s.l, j%s.l)
	if s.sign[i] != s.sign[j] {
		return -v
	}
	return v
}

// solve runs SMO until no violating pair is left, a step makes no
// progress, or maxIter iterations are spent; it returns the iterations
// used (maxIter itself when the cap stopped it).
func (s *smoSolver) solve(maxIter int) int {
	s.init()
	for iter := 0; iter < maxIter; iter++ {
		i, j := s.selectWorkingSet()
		if i < 0 || !s.update(i, j) {
			return iter
		}
	}
	return maxIter
}

// init computes the kernel diagonal, the gradient G = p + Q*alpha (alpha
// may be nonzero for nu-SVR) and the first iteration's maximal violators.
func (s *smoSolver) init() {
	s.kd = make([]float64, s.l)
	for t := 0; t < s.l; t++ {
		s.kd[t] = s.k.At(t, t)
	}
	s.g = append([]float64(nil), s.p...)
	for j := 0; j < s.n; j++ {
		if s.alpha[j] == 0 {
			continue
		}
		aj := s.alpha[j]
		for i := 0; i < s.n; i++ {
			s.g[i] += aj * s.q(i, j)
		}
	}
	s.scanViolators()
}

// scanViolators finds the maximal violator of each sign class from
// scratch: sign +1 is in I_up when alpha < C and violates by -G, sign -1
// when alpha > 0 and violates by +G.
func (s *smoSolver) scanViolators() {
	l, c := s.l, s.c
	aP, aN := s.alpha[:l], s.alpha[l:][:l]
	gP, gN := s.g[:l], s.g[l:][:l]
	gmaxP, gmaxN := math.Inf(-1), math.Inf(-1)
	upP, upN := -1, -1
	for t := 0; t < l; t++ {
		if aP[t] < c {
			if yg := -gP[t]; yg > gmaxP {
				gmaxP, upP = yg, t
			}
		}
		if aN[t] > 0 {
			if yg := gN[t]; yg > gmaxN {
				gmaxN, upN = yg, t+l
			}
		}
	}
	s.upP, s.gmaxP, s.upN, s.gmaxN = upP, gmaxP, upN, gmaxN
}

// update takes the analytic step on the pair (i, j), clips it to the box,
// and brings the gradient and the per-class maximal violators up to date
// in one pass over the rows. It reports false when the step moved neither
// variable (the solver is stuck and stops).
func (s *smoSolver) update(i, j int) bool {
	const tau = 1e-12
	ai, aj := s.alpha[i], s.alpha[j]
	qij := s.q(i, j)
	if s.sign[i] != s.sign[j] {
		quad := s.q(i, i) + s.q(j, j) + 2*qij
		if quad <= 0 {
			quad = tau
		}
		delta := (-s.g[i] - s.g[j]) / quad
		diff := ai - aj
		s.alpha[i] += delta
		s.alpha[j] += delta
		if diff > 0 {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = diff
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = -diff
			}
		}
		if diff > 0 {
			if s.alpha[i] > s.c {
				s.alpha[i] = s.c
				s.alpha[j] = s.c - diff
			}
		} else {
			if s.alpha[j] > s.c {
				s.alpha[j] = s.c
				s.alpha[i] = s.c + diff
			}
		}
	} else {
		quad := s.q(i, i) + s.q(j, j) - 2*qij
		if quad <= 0 {
			quad = tau
		}
		delta := (s.g[i] - s.g[j]) / quad
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
	}
	di, dj := s.alpha[i]-ai, s.alpha[j]-aj
	if di == 0 && dj == 0 {
		return false
	}
	// Gradient update via raw kernel rows: Q[t][i] = sign_t sign_i K,
	// and sign_{t+l} = -sign_t, so the two halves get opposite deltas.
	// Each row's new gradient is compared for the next iteration's
	// maximal violators as soon as it is written: the same comparisons,
	// in the same ascending-t order, as scanViolators would make after
	// the loop.
	l, c := s.l, s.c
	ki := s.k.Row(i % l)[:l]
	kj := s.k.Row(j % l)[:l]
	wi := float64(s.sign[i]) * di
	wj := float64(s.sign[j]) * dj
	aP, aN := s.alpha[:l], s.alpha[l:][:l]
	gP, gN := s.g[:l], s.g[l:][:l]
	gmaxP, gmaxN := math.Inf(-1), math.Inf(-1)
	upP, upN := -1, -1
	for t := 0; t < l; t++ {
		v := wi*ki[t] + wj*kj[t]
		gp, gn := gP[t]+v, gN[t]-v
		gP[t], gN[t] = gp, gn
		if aP[t] < c {
			if yg := -gp; yg > gmaxP {
				gmaxP, upP = yg, t
			}
		}
		if aN[t] > 0 && gn > gmaxN {
			gmaxN, upN = gn, t+l
		}
	}
	s.upP, s.gmaxP, s.upN, s.gmaxN = upP, gmaxP, upN, gmaxN
	return true
}

// selectWorkingSet returns the next working pair using libsvm's
// second-order selection (WSS2), or (-1, -1) on convergence: i is the
// maximal violator in I_up; j minimizes the quadratic objective decrease
// among violating members of I_low. For nu problems the pair is restricted
// to one sign class, following libsvm's Solver_NU.
func (s *smoSolver) selectWorkingSet() (int, int) {
	if !s.nu {
		// One scan over t = 0..2l-1 keeps the first index reaching the
		// maximum, so the sign -1 half wins only when strictly larger.
		i, gmax := s.upP, s.gmaxP
		if s.gmaxN > gmax {
			i, gmax = s.upN, s.gmaxN
		}
		if i < 0 {
			return -1, -1
		}
		j, gmin := s.secondOrderJ(i, gmax, 0)
		if j < 0 || gmax-gmin < s.tol {
			return -1, -1
		}
		return i, j
	}

	// Solver_NU: best violator per sign class, second-order j within the
	// same class, then take the class with the larger violation.
	ip, in := s.upP, s.upN
	jp, jn := -1, -1
	gminP, gminN := math.Inf(1), math.Inf(1)
	if ip >= 0 {
		jp, gminP = s.secondOrderJ(ip, s.gmaxP, 1)
	}
	if in >= 0 {
		jn, gminN = s.secondOrderJ(in, s.gmaxN, -1)
	}
	vp, vn := math.Inf(-1), math.Inf(-1)
	if ip >= 0 && jp >= 0 {
		vp = s.gmaxP - gminP
	}
	if in >= 0 && jn >= 0 {
		vn = s.gmaxN - gminN
	}
	if math.Max(vp, vn) < s.tol {
		return -1, -1
	}
	if vp >= vn {
		return ip, jp
	}
	return in, jn
}

// secondOrderJ picks j for the chosen i (whose violation is gmax) among
// the members of I_low, restricted to one sign class when class is +1 or
// -1 (nu problems) and over both when it is 0: the candidate with the
// largest second-order objective decrease, lowest index on ties. It also
// returns the smallest -y*G seen, which the stopping test needs.
func (s *smoSolver) secondOrderJ(i int, gmax float64, class int8) (int, float64) {
	const tau = 1e-12
	l := s.l
	ki := s.k.Row(i % l)[:l]
	kd := s.kd[:l]
	kdi := kd[i%l]
	j := -1
	objMin, gmin := math.Inf(1), math.Inf(1)
	// First half: sign +1, I_low means alpha > 0, -yG = -G.
	if class >= 0 {
		alpha, g := s.alpha[:l], s.g[:l]
		for t := 0; t < l; t++ {
			if !(alpha[t] > 0) {
				continue
			}
			ygt := -g[t]
			if ygt < gmin {
				gmin = ygt
			}
			b := gmax - ygt
			if b <= 0 {
				continue
			}
			// y_i y_t Q_it = K_it regardless of signs.
			quad := kdi + kd[t] - 2*ki[t]
			if quad <= 0 {
				quad = tau
			}
			if obj := -b * b / quad; obj < objMin {
				objMin, j = obj, t
			}
		}
	}
	// Second half: sign -1, I_low means alpha < C, -yG = +G.
	if class <= 0 {
		c := s.c
		alpha, g := s.alpha[l:][:l], s.g[l:][:l]
		for t := 0; t < l; t++ {
			if !(alpha[t] < c) {
				continue
			}
			ygt := g[t]
			if ygt < gmin {
				gmin = ygt
			}
			b := gmax - ygt
			if b <= 0 {
				continue
			}
			quad := kdi + kd[t] - 2*ki[t]
			if quad <= 0 {
				quad = tau
			}
			if obj := -b * b / quad; obj < objMin {
				objMin, j = obj, t+l
			}
		}
	}
	return j, gmin
}

// rho computes the bias following libsvm (calculate_rho); the returned
// value is libsvm's rho, and the regression bias is b = -rho.
func (s *smoSolver) rho() float64 {
	if !s.nu {
		nFree := 0
		var sumFree float64
		ub, lb := math.Inf(1), math.Inf(-1)
		for t := 0; t < s.n; t++ {
			yg := float64(s.sign[t]) * s.g[t]
			switch {
			case s.alpha[t] >= s.c:
				if s.sign[t] == -1 {
					ub = math.Min(ub, yg)
				} else {
					lb = math.Max(lb, yg)
				}
			case s.alpha[t] <= 0:
				if s.sign[t] == 1 {
					ub = math.Min(ub, yg)
				} else {
					lb = math.Max(lb, yg)
				}
			default:
				nFree++
				sumFree += yg
			}
		}
		if nFree > 0 {
			return sumFree / float64(nFree)
		}
		return (ub + lb) / 2
	}
	// Solver_NU rho.
	var nf1, nf2 int
	var sum1, sum2 float64
	ub1, lb1 := math.Inf(1), math.Inf(-1)
	ub2, lb2 := math.Inf(1), math.Inf(-1)
	for t := 0; t < s.n; t++ {
		if s.sign[t] == 1 {
			switch {
			case s.alpha[t] >= s.c:
				lb1 = math.Max(lb1, s.g[t])
			case s.alpha[t] <= 0:
				ub1 = math.Min(ub1, s.g[t])
			default:
				nf1++
				sum1 += s.g[t]
			}
		} else {
			switch {
			case s.alpha[t] >= s.c:
				lb2 = math.Max(lb2, s.g[t])
			case s.alpha[t] <= 0:
				ub2 = math.Min(ub2, s.g[t])
			default:
				nf2++
				sum2 += s.g[t]
			}
		}
	}
	r1 := (ub1 + lb1) / 2
	if nf1 > 0 {
		r1 = sum1 / float64(nf1)
	}
	r2 := (ub2 + lb2) / 2
	if nf2 > 0 {
		r2 = sum2 / float64(nf2)
	}
	return (r1 - r2) / 2
}
