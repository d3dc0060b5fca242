package mlearn

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// smoProblem is one seeded nu-SVR problem for the solver differential
// test.
type smoProblem struct {
	name    string
	svr     SVR
	x       *Matrix
	y       []float64
	maxIter int
}

// smoShape is what a problem is drawn from: its size, its
// hyperparameters, the cases the selection's tie-breaking and early exits
// depend on, and the seed of the features and targets.
type smoShape struct {
	l, d  int
	c, nu float64
	// dupRows repeats earlier rows after the first third, target included
	// for half of them: equal kernel rows give equal gradients, equal
	// second-order gains and a second-order denominator of 0 (tau stands
	// in).
	dupRows bool
	constY  bool // every target 0.75
	gridY   bool // targets on {0, 1, 2}
	seed    int64
}

func (sh smoShape) problem(name string) smoProblem {
	rng := rand.New(rand.NewSource(sh.seed))
	x := NewMatrix(sh.l, sh.d)
	y := make([]float64, sh.l)
	for i := range y {
		for j := 0; j < sh.d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = rng.NormFloat64()
	}
	if sh.dupRows {
		for i := sh.l/3 + 1; i < sh.l; i++ {
			src := rng.Intn(sh.l/3 + 1)
			copy(x.Row(i), x.Row(src))
			if rng.Intn(2) == 0 {
				y[i] = y[src]
			}
		}
	}
	for i := range y {
		switch {
		case sh.constY:
			y[i] = 0.75
		case sh.gridY:
			y[i] = float64(rng.Intn(3))
		}
	}
	p := smoProblem{
		name: fmt.Sprintf("%s: l=%d d=%d C=%g nu=%g dup=%v const=%v grid=%v seed=%d",
			name, sh.l, sh.d, sh.c, sh.nu, sh.dupRows, sh.constY, sh.gridY, sh.seed),
		svr: SVR{C: sh.c, Nu: sh.nu, Tol: 1e-3},
		x:   x, y: y,
	}
	p.svr.gamma = 1 / float64(sh.d)
	p.maxIter = max(10000, 200*sh.l)
	return p
}

// genSMOProblem draws problem number seed. The shapes rotate through
// l = 1 and 2, duplicated rows, constant targets, targets on a coarse
// grid and plain random draws on up to 40 rows and 5 columns; row counts
// on either side of one and two bitset words; and the shape every
// training pass of the figure drivers solves (40-120 rows, up to 39
// columns, C = 10, nu = 0.5), plain and degenerate.
func genSMOProblem(seed int64) smoProblem {
	rng := rand.New(rand.NewSource(seed))
	sh := smoShape{
		l:    3 + rng.Intn(38),
		d:    1 + rng.Intn(5),
		c:    []float64{0.5, 1, 10, 100, 1000}[rng.Intn(5)],
		nu:   []float64{0.2, 0.5, 0.9}[rng.Intn(3)],
		seed: rng.Int63(),
	}
	name := "random"
	switch seed % 9 {
	case 0:
		name, sh.l = "l=1", 1
	case 1:
		name, sh.l = "l=2", 2
	case 2:
		name, sh.dupRows = "duplicate rows", true
	case 3:
		name, sh.constY = "constant target", true
	case 4:
		name, sh.gridY = "grid targets", true
	case 6:
		name = "word boundary"
		sh.l = []int{63, 64, 65, 127, 128, 129}[rng.Intn(6)]
		sh.dupRows = rng.Intn(2) == 0
		sh.c = min(sh.c, 100) // at C = 1000 most of these run the cap: seconds under -race

	case 7, 8:
		name = "production"
		sh.l, sh.d, sh.c, sh.nu = 40+rng.Intn(81), 1+rng.Intn(39), 10, 0.5
		if seed%9 == 8 {
			name = "production, degenerate"
			sh.dupRows = rng.Intn(2) == 0
			sh.constY = !sh.dupRows
		}
	}
	return sh.problem(fmt.Sprintf("seed %d %s", seed, name))
}

// smoProblemFromBytes decodes a fuzz input: byte 0 is the row count
// (1-130), byte 1 the column count (1-39), byte 2 picks C, byte 3 nu
// (0.01-1), the low bits of byte 4 select duplicate rows, constant and
// grid targets, and the remaining bytes seed the draw.
func smoProblemFromBytes(data []byte) smoProblem {
	var b [5]byte
	n := copy(b[:], data)
	h := fnv.New64a()
	h.Write(data[n:])
	return smoShape{
		l:       1 + int(b[0])%130,
		d:       1 + int(b[1])%39,
		c:       []float64{0.5, 1, 10, 100, 1000}[b[2]%5],
		nu:      float64(1+b[3]%100) / 100,
		dupRows: b[4]&1 != 0,
		constY:  b[4]&2 != 0,
		gridY:   b[4]&4 != 0,
		seed:    int64(h.Sum64()),
	}.problem("fuzz")
}

// solvers returns the production solver and the reference solver at the
// same starting point of p's dual problem.
func (p *smoProblem) solvers() (*smoSolver, *refSolver) {
	sol := p.svr.dual(p.x, p.y)
	l := sol.l
	sign := make([]int8, 2*l)
	lin := make([]float64, 2*l)
	for t, y := range p.y {
		sign[t], sign[t+l] = 1, -1
		lin[t], lin[t+l] = -y, y
	}
	ref := &refSolver{
		n: 2 * l, l: l, k: sol.k,
		sign:  sign,
		p:     lin,
		alpha: append([]float64(nil), sol.alpha...),
		c:     sol.c, tol: sol.tol, nu: true,
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
	// Pair sequence: the production solver stepped by hand through the
	// two calls that are solve's loop body.
	stepped, ref := p.solvers()
	want := ref.solve(p.maxIter)
	var pairs [][2]int
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
	if !sameBitsSlice(stepped.alpha, ref.alpha) {
		t.Fatalf("%s: stepping by hand and solve end at different alpha", p.name)
	}
	// f is the sign -1 half of the reference's gradient to the bit and
	// minus its sign +1 half as a number.
	l := sol.l
	if !sameBitsSlice(sol.f, ref.g[l:]) {
		t.Fatalf("%s: final gradient differs from the reference", p.name)
	}
	for r, g := range ref.g[:l] {
		if g != -sol.f[r] {
			t.Fatalf("%s: reference gradient %d is %v, the solver's row says %v", p.name, r, g, -sol.f[r])
		}
	}
	if a, b := sol.rho(), ref.rho(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: rho %v, reference %v", p.name, a, b)
	}
	return got
}

// TestSMOMatchesReferenceSolver is the differential test of the solver:
// on seeded problems it must walk the reference solver's path step for
// step, also on the ones that never converge and stop at the default
// iteration cap, with every implementation of the row passes.
func TestSMOMatchesReferenceSolver(t *testing.T) {
	forEachRowPass(t, func(t *testing.T) {
		var worked, capped int
		for seed := int64(0); seed < 270; seed++ {
			p := genSMOProblem(seed)
			switch iters := requireSameSolve(t, p); {
			case iters == p.maxIter:
				capped++
			case iters > 0:
				worked++
			}
		}
		if worked < 100 || capped == 0 {
			t.Fatalf("%d problems iterated and converged, %d ran into the cap; the draw must cover both", worked, capped)
		}
		t.Logf("%d problems iterated and converged, %d ran into the cap", worked, capped)
	})
}

// FuzzSMOMatchesReference is TestSMOMatchesReferenceSolver on problems
// decoded from the fuzz input (smoProblemFromBytes), with every
// implementation of the row passes.
func FuzzSMOMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pass := range rowPasses(t) {
			useRowPass(t, pass)
			requireSameSolve(t, smoProblemFromBytes(data))
		}
	})
}

// rowPassNames names the row passes in test names and logs.
var rowPassNames = [...]string{passPortable: "portable", passAVX2: "avx2", passAVX512: "avx512"}

// rowPasses lists the implementations of the solver's row passes this
// machine runs, as values of rowPass: the portable passes and every
// kernel family up to the widest the CPU has. Where /proc/cpuinfo lists
// the flags of a wider family than the package's own CPUID check chose,
// it fails the test rather than let those kernels go untested.
func rowPasses(t testing.TB) []rowPassLevel {
	t.Helper()
	if listed := cpuinfoRowPass(); cpuRowPass < listed {
		t.Fatalf("/proc/cpuinfo lists the flags of the %s kernels, but the CPUID check chose %s",
			rowPassNames[listed], rowPassNames[cpuRowPass])
	}
	var passes []rowPassLevel
	for pass := passPortable; pass <= cpuRowPass; pass++ {
		passes = append(passes, pass)
	}
	return passes
}

// forEachRowPass runs body as one subtest per entry of rowPasses.
func forEachRowPass(t *testing.T, body func(t *testing.T)) {
	for _, pass := range rowPasses(t) {
		t.Run(rowPassNames[pass], func(t *testing.T) {
			useRowPass(t, pass)
			body(t)
		})
	}
}

// useRowPass sets rowPass until the test ends.
func useRowPass(t testing.TB, pass rowPassLevel) {
	old := rowPass
	rowPass = pass
	t.Cleanup(func() { rowPass = old })
}

// cpuinfoRowPass is the widest row pass whose flags /proc/cpuinfo lists:
// avx512f and avx512dq, or avx2.
func cpuinfoRowPass() rowPassLevel {
	if runtime.GOARCH != "amd64" {
		return passPortable
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return passPortable
	}
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags := strings.Fields(line)
			switch {
			case slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq"):
				return passAVX512
			case slices.Contains(flags, "avx2"):
				return passAVX2
			}
			break
		}
	}
	return passPortable
}

// TestSVRReportsCappedFit pins Iterations: a fit that ran into MaxIter
// used all of it, the same fit under a cap it does not reach stops
// below it, and a model that was never fitted ran none.
func TestSVRReportsCappedFit(t *testing.T) {
	forEachRowPass(t, requireCappedFitReported)
}

func requireCappedFitReported(t *testing.T) {
	p := smoShape{l: 30, d: 3, c: 10, nu: 0.5, seed: 5}.problem("capped fit")
	free := NewNuSVR(p.svr.C, p.svr.Nu)
	free.MaxIter = 10000 // the default cap at 30 rows
	if err := free.Fit(p.x, p.y); err != nil {
		t.Fatal(err)
	}
	if free.Iterations() >= free.MaxIter || free.Iterations() < 8 {
		t.Fatalf("fit under a cap of %d stopped after %d iterations", free.MaxIter, free.Iterations())
	}
	capped := NewNuSVR(p.svr.C, p.svr.Nu)
	capped.MaxIter = free.Iterations() / 2
	if err := capped.Fit(p.x, p.y); err != nil {
		t.Fatal(err)
	}
	if capped.Iterations() != capped.MaxIter {
		t.Fatalf("fit capped at %d stopped after %d iterations", capped.MaxIter, capped.Iterations())
	}
	if math.IsNaN(capped.Predict(p.x.Row(0))) {
		t.Fatal("a capped fit must still predict")
	}
	if n := (&SVR{}).Iterations(); n != 0 {
		t.Fatalf("a model that was never fitted reports %d iterations", n)
	}
}
