package mlearn

import "math"

// RelErrCap bounds per-sample relative errors. A non-finite prediction
// (NaN or ±Inf out of a degenerate model) or an astronomically large
// ratio is reported as RelErrCap instead of poisoning every mean, min and
// max that includes the sample with NaN/Inf.
const RelErrCap = 1e12

// MeanRelativeError returns (1/N) * sum |actual - estimate| / actual, the
// paper's primary error metric (Section 5.1). Actual values with magnitude
// below floor are clamped to floor to keep the metric finite, and each
// per-sample error is capped at RelErrCap.
func MeanRelativeError(actual, estimate []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i := range actual {
		s += RelativeError(actual[i], estimate[i])
	}
	return s / float64(len(actual))
}

// RelativeError returns |actual - estimate| / actual for one prediction,
// with the default 1e-9 actual floor and the RelErrCap bound.
func RelativeError(actual, estimate float64) float64 {
	return RelativeErrorFloor(actual, estimate, 1e-9)
}

// RelativeErrorFloor is RelativeError with a caller-chosen floor on the
// actual's magnitude. Metrics whose actual value is legitimately zero
// (result cardinality, pages read on a cached plan) pass a floor in the
// metric's natural unit so a zero actual scores against one unit instead
// of exploding. The result is always finite: NaN and values above
// RelErrCap collapse to RelErrCap.
func RelativeErrorFloor(actual, estimate, floor float64) float64 {
	a := math.Abs(actual)
	if a < floor {
		a = floor
	}
	e := math.Abs(actual-estimate) / a
	if math.IsNaN(e) || e > RelErrCap {
		return RelErrCap
	}
	return e
}

// MaxRelativeError returns the largest per-sample relative error.
func MaxRelativeError(actual, estimate []float64) float64 {
	var m float64
	for i := range actual {
		if e := RelativeError(actual[i], estimate[i]); e > m {
			m = e
		}
	}
	return m
}

// MinRelativeError returns the smallest per-sample relative error.
func MinRelativeError(actual, estimate []float64) float64 {
	m := math.Inf(1)
	for i := range actual {
		if e := RelativeError(actual[i], estimate[i]); e < m {
			m = e
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// PredictiveRisk returns 1 - SSE/SST, the R^2-style metric the paper cites
// from Ganapathi et al. [1]; it measures improvement over predicting the
// mean and can look deceptively good even when relative errors are large
// (footnote 1 of the paper).
func PredictiveRisk(actual, estimate []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	mean := Mean(actual)
	var sse, sst float64
	for i := range actual {
		d := actual[i] - estimate[i]
		sse += d * d
		t := actual[i] - mean
		sst += t * t
	}
	if sst == 0 {
		if sse == 0 {
			return 1
		}
		return 0
	}
	return 1 - sse/sst
}
