package mlearn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKFoldPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		k := 2 + rng.Intn(6)
		folds := KFold(n, k, seed)
		seen := map[int]int{}
		for _, f := range folds {
			for _, i := range f.Test {
				seen[i]++
			}
			// train ∪ test must cover all n indices exactly once each.
			all := map[int]bool{}
			for _, i := range f.Train {
				all[i] = true
			}
			for _, i := range f.Test {
				if all[i] {
					return false // overlap
				}
				all[i] = true
			}
			if len(all) != n {
				return false
			}
		}
		// every index appears in exactly one test fold
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedKFoldBalance(t *testing.T) {
	labels := make([]string, 100)
	for i := range labels {
		labels[i] = string(rune('a' + i%4))
	}
	folds := StratifiedKFold(labels, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("folds %d", len(folds))
	}
	for _, f := range folds {
		count := map[string]int{}
		for _, i := range f.Test {
			count[labels[i]]++
		}
		for l, c := range count {
			if c != 5 { // 25 per label / 5 folds
				t.Fatalf("label %s appears %d times in a fold, want 5", l, c)
			}
		}
	}
}

func TestStratifiedKFoldSmallClasses(t *testing.T) {
	labels := []string{"a", "a", "b", "c", "c", "c"}
	folds := StratifiedKFold(labels, 3, 2)
	total := 0
	for _, f := range folds {
		total += len(f.Test)
	}
	if total != len(labels) {
		t.Fatalf("test rows %d want %d", total, len(labels))
	}
}

// checkFoldInvariants asserts the fold contract for n >= 2: test sets
// partition [0, n) (every index in exactly one test fold), train is the
// exact complement of test in each fold, and no side is empty.
func checkFoldInvariants(t *testing.T, folds []Fold, n int) {
	t.Helper()
	testCount := map[int]int{}
	for fi, f := range folds {
		if len(f.Test) == 0 {
			t.Fatalf("fold %d: empty test side", fi)
		}
		if len(f.Train) == 0 {
			t.Fatalf("fold %d: empty train side", fi)
		}
		inTest := map[int]bool{}
		for _, i := range f.Test {
			testCount[i]++
			inTest[i] = true
		}
		if len(f.Train)+len(f.Test) != n {
			t.Fatalf("fold %d: train %d + test %d != %d", fi, len(f.Train), len(f.Test), n)
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("fold %d: index %d in both train and test", fi, i)
			}
		}
	}
	if len(testCount) != n {
		t.Fatalf("test folds cover %d of %d indices", len(testCount), n)
	}
	for i, c := range testCount {
		if c != 1 {
			t.Fatalf("index %d appears in %d test folds", i, c)
		}
	}
}

func TestStratifiedKFoldMoreFoldsThanSamplesPerLabel(t *testing.T) {
	// 4 folds but only 2 samples per label: stratification cannot put
	// every label in every fold, but the partition contract must hold.
	labels := []string{"a", "a", "b", "b", "c", "c"}
	folds := StratifiedKFold(labels, 4, 7)
	if len(folds) != 4 {
		t.Fatalf("folds %d want 4", len(folds))
	}
	checkFoldInvariants(t, folds, len(labels))
}

func TestStratifiedKFoldSingleLabel(t *testing.T) {
	labels := []string{"x", "x", "x", "x", "x", "x"}
	folds := StratifiedKFold(labels, 3, 5)
	if len(folds) != 3 {
		t.Fatalf("folds %d want 3", len(folds))
	}
	checkFoldInvariants(t, folds, len(labels))
}

func TestFoldsMoreFoldsThanSamples(t *testing.T) {
	// k > n clamps to n one-test-sample folds (leave-one-out).
	folds := StratifiedKFold([]string{"a", "b", "a"}, 10, 3)
	if len(folds) != 3 {
		t.Fatalf("folds %d want 3", len(folds))
	}
	checkFoldInvariants(t, folds, 3)
	folds = KFold(3, 10, 3)
	if len(folds) != 3 {
		t.Fatalf("kfold folds %d want 3", len(folds))
	}
	checkFoldInvariants(t, folds, 3)
}

func TestFoldsDegenerateInputs(t *testing.T) {
	// One sample: no true split exists; the degenerate fold must still
	// have non-empty, trainable sides (this was an empty-train-fold bug).
	for _, folds := range [][]Fold{
		KFold(1, 5, 1),
		StratifiedKFold([]string{"only"}, 5, 1),
	} {
		if len(folds) != 1 {
			t.Fatalf("folds %d want 1", len(folds))
		}
		if len(folds[0].Train) != 1 || len(folds[0].Test) != 1 {
			t.Fatalf("degenerate fold sides train=%v test=%v", folds[0].Train, folds[0].Test)
		}
	}
	if folds := KFold(0, 5, 1); len(folds) != 0 {
		t.Fatalf("n=0 folds %d want 0", len(folds))
	}
	if folds := StratifiedKFold(nil, 5, 1); len(folds) != 0 {
		t.Fatalf("empty labels folds %d want 0", len(folds))
	}
}

func TestStratifiedKFoldPartitionProperty(t *testing.T) {
	// Property: for any label multiset and any k, every index lands in
	// exactly one test fold and no fold has an empty side.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		nLabels := 1 + rng.Intn(8)
		labels := make([]string, n)
		for i := range labels {
			labels[i] = string(rune('a' + rng.Intn(nLabels)))
		}
		k := 2 + rng.Intn(9)
		folds := StratifiedKFold(labels, k, seed)
		want := k
		if want > n {
			want = n
		}
		if len(folds) != want {
			return false
		}
		seen := map[int]int{}
		for _, f := range folds {
			if len(f.Test) == 0 || len(f.Train) == 0 {
				return false
			}
			for _, i := range f.Test {
				seen[i]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValPredictPerfectModel(t *testing.T) {
	n := 40
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i))
		y[i] = 3*float64(i) + 2
	}
	factory := func() Regressor { return NewLinearRegression(0) }
	folds := KFold(n, 5, 1)
	pred, err := CrossValPredict(factory, x, y, folds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(pred[i]-y[i]) > 1e-6 {
			t.Fatalf("oof pred %v want %v", pred[i], y[i])
		}
	}
	mre, err := CrossValMRE(factory, x, y, folds)
	if err != nil {
		t.Fatal(err)
	}
	if mre > 1e-9 {
		t.Fatalf("mre %v", mre)
	}
}

func TestMetrics(t *testing.T) {
	actual := []float64{10, 20}
	est := []float64{12, 15}
	mre := MeanRelativeError(actual, est)
	if !almostEqual(mre, (0.2+0.25)/2, 1e-12) {
		t.Fatalf("mre %v", mre)
	}
	if MaxRelativeError(actual, est) != 0.25 {
		t.Fatal("max")
	}
	if MinRelativeError(actual, est) != 0.2 {
		t.Fatal("min")
	}
	if r := PredictiveRisk(actual, actual); r != 1 {
		t.Fatalf("risk of perfect pred %v", r)
	}
	if r := PredictiveRisk(actual, []float64{15, 15}); r != 0 {
		t.Fatalf("risk of mean pred %v", r)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := PearsonCorrelation(a, []float64{2, 4, 6, 8}); !almostEqual(c, 1, 1e-12) {
		t.Fatalf("corr %v", c)
	}
	if c := PearsonCorrelation(a, []float64{8, 6, 4, 2}); !almostEqual(c, -1, 1e-12) {
		t.Fatalf("corr %v", c)
	}
	if c := PearsonCorrelation(a, []float64{5, 5, 5, 5}); c != 0 {
		t.Fatalf("constant corr %v", c)
	}
}

func TestForwardFeatureSelectionFindsSignal(t *testing.T) {
	// Feature 0 is pure noise; features 1 and 2 carry the target.
	rng := rand.New(rand.NewSource(11))
	n := 100
	x := NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, rng.NormFloat64())
		y[i] = 10 + 5*x.At(i, 1) + 2*x.At(i, 2)
	}
	factory := func() Regressor { return NewLinearRegression(1e-6) }
	sel, errRate, err := ForwardFeatureSelection(factory, x, y, FeatureSelectionConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	has := map[int]bool{}
	for _, s := range sel {
		has[s] = true
	}
	if !has[1] || !has[2] {
		t.Fatalf("selected %v, want features 1 and 2", sel)
	}
	if errRate > 0.01 {
		t.Fatalf("cv error %v too high", errRate)
	}
}

func TestSelectColumnsAndRow(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := SelectColumns(x, []int{2, 0})
	if s.At(0, 0) != 3 || s.At(0, 1) != 1 || s.At(1, 0) != 6 {
		t.Fatalf("got %v", s.Data)
	}
	r := SelectRow([]float64{7, 8, 9}, []int{1})
	if len(r) != 1 || r[0] != 8 {
		t.Fatalf("got %v", r)
	}
}
