package qpp

import (
	"fmt"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// Metric selects the performance target a model predicts. The paper
// focuses on execution latency but notes (Sections 1 and 6) that the
// techniques apply unchanged to other metrics such as disk I/O; this
// generalization implements that claim for plan-level models.
type Metric int

const (
	// MetricLatency is query execution time in (virtual) seconds.
	MetricLatency Metric = iota
	// MetricPagesRead is the total pages read by the query (disk I/O),
	// the secondary metric Ganapathi et al. [1] also predict.
	MetricPagesRead
	// MetricRowsOut is the query's result cardinality.
	MetricRowsOut
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricPagesRead:
		return "pages-read"
	case MetricRowsOut:
		return "rows-out"
	default:
		return "latency"
	}
}

// MetricValue extracts the observed value of a metric from an executed
// query record.
func MetricValue(rec *QueryRecord, m Metric) float64 {
	switch m {
	case MetricPagesRead:
		var pages float64
		rec.Root.Walk(func(n *plan.Node) { pages += n.Act.Pages })
		return pages
	case MetricRowsOut:
		return rec.Root.Act.Rows
	default:
		return rec.Time
	}
}

// TrainPlanLevelMetric fits a plan-level model predicting the given
// metric instead of latency, using the same Table-1 static features.
func TrainPlanLevelMetric(recs []*QueryRecord, metric Metric, mode FeatureMode, cfg PlanModelConfig) (*PlanLevelPredictor, error) {
	if err := validateRecords(recs); err != nil {
		return nil, err
	}
	x := mlearn.NewMatrix(len(recs), NumPlanFeatures())
	y := make([]float64, len(recs))
	for i, r := range recs {
		copy(x.Row(i), PlanFeatures(r.Root, mode))
		y[i] = MetricValue(r, metric)
	}
	pm, err := TrainPlanModel(x, y, cfg)
	if err != nil {
		return nil, fmt.Errorf("qpp: %s model: %w", metric, err)
	}
	return &PlanLevelPredictor{Model: pm, Mode: mode}, nil
}

// MetricFloor is the smallest actual magnitude a relative error divides
// by for the metric. Latency uses a microsecond of virtual time (every
// executed query advances the clock, so observed latencies sit far above
// it); pages and rows are counts that are legitimately zero — an empty
// result or fully cached plan — so they floor at one unit, scoring an
// estimate of k against a zero actual as an error of k rather than k/1e-9.
func MetricFloor(m Metric) float64 {
	switch m {
	case MetricPagesRead, MetricRowsOut:
		return 1
	default:
		return 1e-6
	}
}

// MetricRelativeError is the per-sample relative error in the metric's
// own unit: |actual-estimate| / max(|actual|, MetricFloor(m)), capped at
// mlearn.RelErrCap. It is finite for every input, including zero actuals
// and NaN/Inf estimates, so figure output never carries NaN or Inf.
func MetricRelativeError(m Metric, actual, estimate float64) float64 {
	return mlearn.RelativeErrorFloor(actual, estimate, MetricFloor(m))
}
