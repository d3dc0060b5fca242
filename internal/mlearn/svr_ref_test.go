package mlearn

import "math"

// The SMO solver as it stood before the working-set scan was fused into
// the gradient update (ISSUE 15), kept verbatim as the oracle of
// TestSMOMatchesReferenceSolver: closures in selectWorkingSet, two
// maximal-violator passes at the top of every iteration, both halves of
// the gradient, every alpha tested against 0 and C on every row. Only the
// type's name and the pairs log differ from the code it was copied from;
// rho, at the end, is the nu half of the bias computation the solver had
// until it kept one gradient row.

// refSolver carries the state of the 2l-variable SMO optimization.
type refSolver struct {
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

	pairs [][2]int // every working pair selected, in order
}

// q returns Q[i][j] = sign_i * sign_j * K[i%l][j%l].
func (s *refSolver) q(i, j int) float64 {
	v := s.k.At(i%s.l, j%s.l)
	if s.sign[i] != s.sign[j] {
		return -v
	}
	return v
}

func (s *refSolver) solve(maxIter int) int {
	s.kd = make([]float64, s.l)
	for t := 0; t < s.l; t++ {
		s.kd[t] = s.k.At(t, t)
	}
	// Initialize gradient G = p + Q*alpha (alpha may be nonzero for nu-SVR).
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
	const tau = 1e-12
	for iter := 0; iter < maxIter; iter++ {
		i, j := s.selectWorkingSet()
		if i < 0 {
			return iter
		}
		s.pairs = append(s.pairs, [2]int{i, j})
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
			return iter
		}
		// Gradient update via raw kernel rows: Q[t][i] = sign_t sign_i K,
		// and sign_{t+l} = -sign_t, so the two halves get opposite deltas.
		ki := s.k.Row(i % s.l)
		kj := s.k.Row(j % s.l)
		wi := float64(s.sign[i]) * di
		wj := float64(s.sign[j]) * dj
		gLow := s.g[s.l:]
		for t := 0; t < s.l; t++ {
			v := wi*ki[t] + wj*kj[t]
			s.g[t] += v
			gLow[t] -= v
		}
	}
	return maxIter
}

// selectWorkingSet returns the next working pair using libsvm's
// second-order selection (WSS2), or (-1, -1) on convergence: i is the
// maximal violator in I_up; j minimizes the quadratic objective decrease
// among violating members of I_low. For nu problems the pair is restricted
// to one sign class, following libsvm's Solver_NU.
func (s *refSolver) selectWorkingSet() (int, int) {
	const tau = 1e-12
	// secondOrderJ picks j among candidates in I_low (restricted to the
	// given sign class for nu problems) given the chosen i.
	secondOrderJ := func(i int, gmax float64, class int8) (int, float64) {
		j := -1
		objMin := math.Inf(1)
		gmin := math.Inf(1)
		ki := s.k.Row(i % s.l)
		kdi := s.kd[i%s.l]
		// consider evaluates candidate t with precomputed -y_t*G_t.
		consider := func(t, tl int, ygt float64) {
			if ygt < gmin {
				gmin = ygt
			}
			b := gmax - ygt
			if b <= 0 {
				return
			}
			// y_i y_t Q_it = K_it regardless of signs.
			quad := kdi + s.kd[tl] - 2*ki[tl]
			if quad <= 0 {
				quad = tau
			}
			if obj := -b * b / quad; obj < objMin {
				objMin = obj
				j = t
			}
		}
		// First half: sign +1, I_low means alpha > 0, -yG = -G.
		if class >= 0 {
			for t := 0; t < s.l; t++ {
				if s.alpha[t] > 0 {
					consider(t, t, -s.g[t])
				}
			}
		}
		// Second half: sign -1, I_low means alpha < C, -yG = +G.
		if class <= 0 {
			for t := s.l; t < s.n; t++ {
				if s.alpha[t] < s.c {
					consider(t, t-s.l, s.g[t])
				}
			}
		}
		return j, gmin
	}

	if !s.nu {
		gmax := math.Inf(-1)
		i := -1
		for t := 0; t < s.l; t++ { // sign +1: I_up means alpha < C
			if s.alpha[t] < s.c {
				if yg := -s.g[t]; yg > gmax {
					gmax, i = yg, t
				}
			}
		}
		for t := s.l; t < s.n; t++ { // sign -1: I_up means alpha > 0
			if s.alpha[t] > 0 {
				if yg := s.g[t]; yg > gmax {
					gmax, i = yg, t
				}
			}
		}
		if i < 0 {
			return -1, -1
		}
		j, gmin := secondOrderJ(i, gmax, 0)
		if j < 0 || gmax-gmin < s.tol {
			return -1, -1
		}
		return i, j
	}

	// Solver_NU: best violator per sign class, second-order j within the
	// same class, then take the class with the larger violation.
	gmaxP, gmaxN := math.Inf(-1), math.Inf(-1)
	ip, in := -1, -1
	for t := 0; t < s.l; t++ { // sign +1
		if s.alpha[t] < s.c {
			if yg := -s.g[t]; yg > gmaxP {
				gmaxP, ip = yg, t
			}
		}
	}
	for t := s.l; t < s.n; t++ { // sign -1
		if s.alpha[t] > 0 {
			if yg := s.g[t]; yg > gmaxN {
				gmaxN, in = yg, t
			}
		}
	}
	jp, jn := -1, -1
	gminP, gminN := math.Inf(1), math.Inf(1)
	if ip >= 0 {
		jp, gminP = secondOrderJ(ip, gmaxP, 1)
	}
	if in >= 0 {
		jn, gminN = secondOrderJ(in, gmaxN, -1)
	}
	vp, vn := math.Inf(-1), math.Inf(-1)
	if ip >= 0 && jp >= 0 {
		vp = gmaxP - gminP
	}
	if in >= 0 && jn >= 0 {
		vn = gmaxN - gminN
	}
	if math.Max(vp, vn) < s.tol {
		return -1, -1
	}
	if vp >= vn {
		return ip, jp
	}
	return in, jn
}

// rho computes the bias following libsvm (calculate_rho, Solver_NU); the
// returned value is libsvm's rho, and the regression bias is b = -rho.
func (s *refSolver) rho() float64 {
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
