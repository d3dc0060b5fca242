package mlearn

import (
	"math"
	"sort"
)

// PearsonCorrelation returns the linear correlation coefficient of a and b,
// or 0 when either vector is constant.
func PearsonCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// RankFeaturesByCorrelation orders feature column indices by decreasing
// absolute Pearson correlation with the target, the ranking the paper's
// forward feature selection uses to guide its best-first search.
func RankFeaturesByCorrelation(x *Matrix, y []float64) []int {
	type fc struct {
		idx  int
		corr float64
	}
	fcs := make([]fc, x.Cols)
	for j := 0; j < x.Cols; j++ {
		fcs[j] = fc{j, math.Abs(PearsonCorrelation(x.Col(j), y))}
	}
	sort.SliceStable(fcs, func(i, j int) bool { return fcs[i].corr > fcs[j].corr })
	out := make([]int, x.Cols)
	for i, f := range fcs {
		out[i] = f.idx
	}
	return out
}

// FeatureSelectionConfig tunes ForwardFeatureSelection.
type FeatureSelectionConfig struct {
	// Folds is the number of CV folds used to score candidate feature sets
	// (default 3; scoring uses plain K-fold over the training data).
	Folds int
	// Seed drives the CV shuffling.
	Seed int64
}

// The search's fixed settings: a feature is kept when it improves the
// cross-validated relative error by more than minImprovement, and the
// search stops after maxMisses consecutive candidates that do not.
const (
	minImprovement = 0.002
	maxMisses      = 4
)

// ForwardFeatureSelection implements the paper's correlation-guided forward
// selection (Section 2): features are considered in decreasing correlation
// with the target; a feature is kept when adding it improves cross-validated
// mean relative error. It returns the selected column indices in the order
// they were adopted, and the final CV error.
func ForwardFeatureSelection(factory ModelFactory, x *Matrix, y []float64, cfg FeatureSelectionConfig) ([]int, float64, error) {
	if cfg.Folds <= 1 {
		cfg.Folds = 3
	}
	order := RankFeaturesByCorrelation(x, y)
	folds := KFold(x.Rows, cfg.Folds, cfg.Seed)

	var selected []int
	best := math.Inf(1)
	misses := 0
	for _, cand := range order {
		trial := append(append([]int(nil), selected...), cand)
		xt := SelectColumns(x, trial)
		err, fitErr := CrossValMRE(factory, xt, y, folds)
		if fitErr != nil {
			// An untrainable candidate set (e.g. degenerate columns) is
			// simply skipped; selection should be robust, not fatal.
			continue
		}
		if len(selected) == 0 || err < best-minImprovement {
			selected = trial
			best = err
			misses = 0
		} else {
			misses++
			if misses >= maxMisses {
				break
			}
		}
	}
	if len(selected) == 0 && x.Cols > 0 {
		selected = []int{order[0]}
		xt := SelectColumns(x, selected)
		e, fitErr := CrossValMRE(factory, xt, y, folds)
		if fitErr == nil {
			best = e
		}
	}
	return selected, best, nil
}

// SelectColumns returns a new matrix holding the chosen columns of x, in
// the given order.
func SelectColumns(x *Matrix, cols []int) *Matrix {
	out := NewMatrix(x.Rows, len(cols))
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		dst := out.Row(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}

// SelectRow projects one raw feature row onto the chosen columns.
func SelectRow(row []float64, cols []int) []float64 {
	out := make([]float64, len(cols))
	for j, c := range cols {
		out[j] = row[c]
	}
	return out
}
