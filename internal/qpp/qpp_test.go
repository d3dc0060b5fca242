package qpp_test

import (
	"math"
	"testing"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

var dsCache *workload.Dataset

// testDataset builds a small executed workload shared by the tests.
func testDataset(t *testing.T) *workload.Dataset {
	t.Helper()
	if dsCache == nil {
		ds, err := workload.Build(workload.Config{
			ScaleFactor: 0.004,
			Templates:   []int{1, 3, 4, 5, 6, 10, 12, 13, 14, 19, 2, 11},
			PerTemplate: 8,
			Seed:        11,
		})
		if err != nil {
			t.Fatal(err)
		}
		dsCache = ds
	}
	return dsCache
}

func opOnly(recs []*qpp.QueryRecord) []*qpp.QueryRecord {
	var out []*qpp.QueryRecord
	for _, r := range recs {
		if !r.Root.HasSubqueryStructures() {
			out = append(out, r)
		}
	}
	return out
}

func TestPlanFeatureExtraction(t *testing.T) {
	ds := testDataset(t)
	rec := ds.Records[0]
	f := qpp.PlanFeatures(rec.Root, qpp.FeatEstimates)
	if len(f) != qpp.NumPlanFeatures() {
		t.Fatalf("feature length %d want %d", len(f), qpp.NumPlanFeatures())
	}
	names := qpp.PlanFeatureNames()
	if names[0] != "p_tot_cost" || names[4] != "op_count" {
		t.Fatalf("names %v", names[:5])
	}
	if f[0] <= 0 {
		t.Fatal("p_tot_cost must be positive")
	}
	opCount := f[4]
	size := 0
	rec.Root.Walk(func(*plan.Node) { size++ })
	if opCount != float64(size) {
		t.Fatalf("op_count %v want %d", opCount, size)
	}
	// Actual-mode features report per-loop observed rows (the root runs
	// exactly once, so its value is the plain row count).
	fa := qpp.PlanFeatures(rec.Root, qpp.FeatActuals)
	if fa[2] != rec.Root.Act.Rows/float64(rec.Root.Act.Loops) {
		t.Fatalf("actual p_rows %v want %v", fa[2], rec.Root.Act.Rows)
	}
}

func TestOpFeatureExtraction(t *testing.T) {
	ds := testDataset(t)
	var node *plan.Node
	for _, r := range ds.Records {
		if len(r.Root.Children) > 0 {
			node = r.Root
			break
		}
	}
	f := qpp.OpFeatures(node, qpp.FeatEstimates, 1, 2, 3, 4)
	if len(f) != qpp.NumOpFeatures() {
		t.Fatalf("length %d", len(f))
	}
	if f[5] != 1 || f[6] != 2 || f[7] != 3 || f[8] != 4 {
		t.Fatalf("child time features %v", f[5:])
	}
	if f[4] <= 0 || f[4] > 1 {
		t.Fatalf("selectivity %v", f[4])
	}
}

func TestPlanLevelInSampleAccuracy(t *testing.T) {
	ds := testDataset(t)
	p, err := qpp.TrainPlanLevel(ds.Records, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var act, pred []float64
	for _, r := range ds.Records {
		act = append(act, r.Time)
		pred = append(pred, p.Predict(r))
	}
	mre := mlearn.MeanRelativeError(act, pred)
	if mre > 0.6 {
		t.Fatalf("plan-level in-sample MRE %v too high", mre)
	}
}

func TestPlanLevelBeatsCostBaseline(t *testing.T) {
	ds := testDataset(t)
	labels := workload.TemplateLabels(ds.Records)
	folds := mlearn.StratifiedKFold(labels, 4, 1)

	var actual, planPred, costPred []float64
	for _, f := range folds {
		var train, test []*qpp.QueryRecord
		for _, i := range f.Train {
			train = append(train, ds.Records[i])
		}
		for _, i := range f.Test {
			test = append(test, ds.Records[i])
		}
		pl, err := qpp.TrainPlanLevel(train, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		cb, err := qpp.TrainCostBaseline(train)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range test {
			actual = append(actual, r.Time)
			planPred = append(planPred, pl.Predict(r))
			costPred = append(costPred, cb.Predict(r))
		}
	}
	planErr := mlearn.MeanRelativeError(actual, planPred)
	costErr := mlearn.MeanRelativeError(actual, costPred)
	t.Logf("plan-level CV MRE=%.3f, cost baseline MRE=%.3f", planErr, costErr)
	if planErr >= costErr {
		t.Fatalf("plan-level (%.3f) must beat the cost baseline (%.3f)", planErr, costErr)
	}
}

func TestOperatorLevelPredict(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	ops, err := qpp.TrainOperatorModels(recs, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var act, pred []float64
	for _, r := range recs {
		p, err := ops.Predict(r, qpp.ChildTimesPredicted)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("bad prediction %v", p)
		}
		act = append(act, r.Time)
		pred = append(pred, p)
	}
	mre := mlearn.MeanRelativeError(act, pred)
	t.Logf("operator-level in-sample MRE=%.3f", mre)
	if mre > 2.0 {
		t.Fatalf("operator-level in-sample MRE %v unreasonably high", mre)
	}
}

func TestOperatorLevelRejectsSubqueryPlans(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	ops, err := qpp.TrainOperatorModels(recs, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if !r.Root.HasSubqueryStructures() {
			continue
		}
		if _, err := ops.Predict(r, qpp.ChildTimesPredicted); err != qpp.ErrSubqueryPlan {
			t.Fatalf("template %d: want ErrSubqueryPlan, got %v", r.Template, err)
		}
		return
	}
	t.Fatal("dataset has no subquery-structured plans (expected Q2/Q11)")
}

func TestOracleChildTimesHelp(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	ops, err := qpp.TrainOperatorModels(recs, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var act, predP, predA []float64
	for _, r := range recs {
		pp, _ := ops.Predict(r, qpp.ChildTimesPredicted)
		pa, _ := ops.Predict(r, qpp.ChildTimesActual)
		act = append(act, r.Time)
		predP = append(predP, pp)
		predA = append(predA, pa)
	}
	ep := mlearn.MeanRelativeError(act, predP)
	ea := mlearn.MeanRelativeError(act, predA)
	t.Logf("predicted-child MRE=%.3f, actual-child MRE=%.3f", ep, ea)
	// Error propagation means oracle child times should not be worse.
	if ea > ep*1.5 {
		t.Fatalf("actual child times (%.3f) unexpectedly much worse than predicted (%.3f)", ea, ep)
	}
}

func TestHybridTrainingImproves(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	cfg := qpp.DefaultHybridConfig(qpp.ErrorBased)
	cfg.MaxIters = 10
	h, stats, err := qpp.TrainHybrid(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no iterations recorded")
	}
	// Training error must never increase across iterations.
	prev := math.Inf(1)
	for _, s := range stats {
		if s.TrainError > prev+1e-12 {
			t.Fatalf("training error increased: %v -> %v", prev, s.TrainError)
		}
		prev = s.TrainError
	}
	accepted := 0
	for _, s := range stats {
		if s.Accepted {
			accepted++
		}
	}
	if accepted != h.NumPlanModels() {
		t.Fatalf("accepted %d but model set has %d", accepted, h.NumPlanModels())
	}
	// Hybrid predictions must be finite and nonnegative.
	for _, r := range recs[:5] {
		p, err := h.Predict(r)
		if err != nil || p < 0 || math.IsNaN(p) {
			t.Fatalf("hybrid prediction %v err %v", p, err)
		}
	}
}

func TestHybridStrategiesDiffer(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	var orders []string
	for _, s := range []qpp.Strategy{qpp.SizeBased, qpp.FrequencyBased, qpp.ErrorBased} {
		cfg := qpp.DefaultHybridConfig(s)
		cfg.MaxIters = 3
		_, stats, err := qpp.TrainHybrid(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sig := ""
		if len(stats) > 0 {
			sig = stats[0].Signature
		}
		orders = append(orders, s.String()+":"+sig)
	}
	t.Logf("first candidates: %v", orders)
}

func TestOnlinePrediction(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	// Leave template 13 out; predict its queries online.
	train, test := workload.SplitLeaveTemplateOut(recs, 13)
	if len(test) == 0 {
		t.Skip("no template-13 records")
	}
	ops, err := qpp.TrainOperatorModels(train, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	online := qpp.NewOnlinePredictor(train, ops, nil)
	for _, r := range test[:2] {
		p, err := online.Predict(r)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("online prediction %v", p)
		}
	}
}

func TestCostBaseline(t *testing.T) {
	ds := testDataset(t)
	cb, err := qpp.TrainCostBaseline(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	slope, _ := cb.Coefficients()
	if slope <= 0 {
		t.Fatalf("cost should correlate positively with latency, slope %v", slope)
	}
	if p := cb.Predict(ds.Records[0]); p < 0 || math.IsNaN(p) {
		t.Fatalf("baseline prediction %v", p)
	}
}

func TestValidation(t *testing.T) {
	if _, err := qpp.TrainCostBaseline(nil); err == nil {
		t.Fatal("empty training set must fail")
	}
	bad := []*qpp.QueryRecord{{Template: 1}}
	if _, err := qpp.TrainPlanLevel(bad, qpp.FeatEstimates, qpp.DefaultPlanModelConfig()); err == nil {
		t.Fatal("record without plan must fail")
	}
}

func TestWorkloadDataset(t *testing.T) {
	ds := testDataset(t)
	if len(ds.Records) == 0 {
		t.Fatal("no records")
	}
	for _, r := range ds.Records {
		if r.Time <= 0 {
			t.Fatalf("template %d: nonpositive time %v", r.Template, r.Time)
		}
		if !r.Root.Act.Executed {
			t.Fatal("plan not executed")
		}
	}
	tpls := workload.TemplatesPresent(ds.Records)
	if len(tpls) < 10 {
		t.Fatalf("templates present %v", tpls)
	}
	if got := workload.FilterTemplates(ds.Records, []int{1}); len(got) != 8 {
		t.Fatalf("filter got %d", len(got))
	}
	train, test := workload.SplitLeaveTemplateOut(ds.Records, 1)
	if len(test) != 8 || len(train) != len(ds.Records)-8 {
		t.Fatalf("split %d/%d", len(train), len(test))
	}
	_ = tpch.Templates
}
