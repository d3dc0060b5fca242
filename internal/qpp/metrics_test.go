package qpp_test

import (
	"math"
	"testing"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
	"qpp/internal/qpp"
)

func TestMetricFloor(t *testing.T) {
	if f := qpp.MetricFloor(qpp.MetricLatency); f != 1e-6 {
		t.Fatalf("latency floor %v", f)
	}
	if f := qpp.MetricFloor(qpp.MetricRowsOut); f != 1 {
		t.Fatalf("rows floor %v", f)
	}
	if f := qpp.MetricFloor(qpp.MetricPagesRead); f != 1 {
		t.Fatalf("pages floor %v", f)
	}
}

// TestMetricRelativeErrorZeroActual: count metrics with a legitimately
// zero actual (empty result, fully cached plan) score the estimate
// absolutely instead of dividing by (almost) zero.
func TestMetricRelativeErrorZeroActual(t *testing.T) {
	if e := qpp.MetricRelativeError(qpp.MetricRowsOut, 0, 7); e != 7 {
		t.Fatalf("rows error %v, want 7", e)
	}
	if e := qpp.MetricRelativeError(qpp.MetricPagesRead, 0, 0); e != 0 {
		t.Fatalf("pages error %v, want 0", e)
	}
	// Latency keeps a tight floor: errors stay finite even at actual 0.
	e := qpp.MetricRelativeError(qpp.MetricLatency, 0, 1)
	if math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("latency error %v not finite", e)
	}
}

// TestMetricRelativeErrorBadEstimates: NaN/Inf predictions never leak
// NaN/Inf into the error, only the finite cap.
func TestMetricRelativeErrorBadEstimates(t *testing.T) {
	for _, m := range []qpp.Metric{qpp.MetricLatency, qpp.MetricPagesRead, qpp.MetricRowsOut} {
		for _, est := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			e := qpp.MetricRelativeError(m, 0, est)
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Errorf("%s with estimate %v: error %v not finite", m, est, e)
			}
			if e != mlearn.RelErrCap {
				t.Errorf("%s with estimate %v: error %v, want cap", m, est, e)
			}
		}
	}
}

// TestMetricValueZeroRows: a record whose root produced no rows reports
// zero for the cardinality metric (the input the floors exist for).
func TestMetricValueZeroRows(t *testing.T) {
	root := &plan.Node{Op: plan.OpSeqScan}
	rec := &qpp.QueryRecord{Template: 1, SQL: "q", Root: root, Time: 0.5}
	if v := qpp.MetricValue(rec, qpp.MetricRowsOut); v != 0 {
		t.Fatalf("rows-out %v", v)
	}
	if v := qpp.MetricValue(rec, qpp.MetricPagesRead); v != 0 {
		t.Fatalf("pages-read %v", v)
	}
	if v := qpp.MetricValue(rec, qpp.MetricLatency); v != 0.5 {
		t.Fatalf("latency %v", v)
	}
}

// TestMetricPredictorEvalFinite: training and evaluating each metric on a
// real workload — which contains zero-row queries — yields finite errors.
func TestMetricPredictorEvalFinite(t *testing.T) {
	ds := testDataset(t)
	recs := ds.Records
	for _, m := range []qpp.Metric{qpp.MetricLatency, qpp.MetricPagesRead, qpp.MetricRowsOut} {
		p, err := qpp.TrainPlanLevelMetric(recs, m, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		var e float64
		for _, r := range recs {
			e += qpp.MetricRelativeError(m, qpp.MetricValue(r, m), p.Predict(r)) / float64(len(recs))
		}
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			t.Fatalf("%s: eval error %v not finite and non-negative", m, e)
		}
	}
}

func TestMetricPredictors(t *testing.T) {
	ds := testDataset(t)
	for _, m := range []qpp.Metric{qpp.MetricPagesRead, qpp.MetricRowsOut, qpp.MetricLatency} {
		p, err := qpp.TrainPlanLevelMetric(ds.Records, m, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		var act, pred []float64
		for _, r := range ds.Records {
			act = append(act, qpp.MetricValue(r, m))
			pred = append(pred, p.Predict(r))
		}
		// In-sample accuracy sanity: the model must carry real signal.
		var num, den float64
		for i := range act {
			num += math.Abs(act[i] - pred[i])
			den += math.Abs(act[i]) + 1e-9
		}
		if num/den > 0.5 {
			t.Fatalf("%s: weighted error %.3f too high", m, num/den)
		}
	}
	if qpp.MetricPagesRead.String() != "pages-read" || qpp.MetricLatency.String() != "latency" {
		t.Fatal("metric names")
	}
}

func TestMetricValueExtraction(t *testing.T) {
	ds := testDataset(t)
	r := ds.Records[0]
	if qpp.MetricValue(r, qpp.MetricLatency) != r.Time {
		t.Fatal("latency metric")
	}
	if qpp.MetricValue(r, qpp.MetricPagesRead) <= 0 {
		t.Fatal("pages metric should be positive")
	}
	if qpp.MetricValue(r, qpp.MetricRowsOut) != r.Root.Act.Rows {
		t.Fatal("rows metric")
	}
}
