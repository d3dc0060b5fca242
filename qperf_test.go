package qperf_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"qpp"
	"qpp/internal/tpch"
)

var (
	apiWorkloadOnce sync.Once
	apiTrain        *qperf.Workload
	apiErr          error
)

func apiTrainingWorkload(t *testing.T) *qperf.Workload {
	t.Helper()
	apiWorkloadOnce.Do(func() {
		apiTrain, apiErr = qperf.BuildWorkload(qperf.WorkloadConfig{
			ScaleFactor: 0.003,
			Templates:   []int{1, 3, 6, 12},
			PerTemplate: 8,
			Seed:        17,
		})
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiTrain
}

func TestEngineExplainAndRun(t *testing.T) {
	engine, err := qperf.NewEngine(qperf.EngineConfig{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Explain("select count(*) from orders where o_orderdate < date '1995-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Seq Scan on orders") || !strings.Contains(out, "cost=") {
		t.Fatalf("explain output:\n%s", out)
	}
	res, err := engine.Run("select count(*) from lineitem", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Elapsed <= 0 {
		t.Fatalf("run result %v / %v", res.Rows, res.Elapsed)
	}
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	li, _ := db.Table("lineitem")
	if res.Rows[0][0].I() != int64(li.Rows.Len()) {
		t.Fatalf("count %v want %d", res.Rows[0][0], li.Rows.Len())
	}
	nation, err := engine.Run("select count(*) from nation", 2)
	if err != nil {
		t.Fatal(err)
	}
	if analyzed := qperf.ExplainPlan(nation.Plan); !strings.Contains(analyzed, "actual time=") {
		t.Fatalf("explain analyze missing actuals:\n%s", analyzed)
	}
}

func TestEngineErrors(t *testing.T) {
	engine, err := qperf.NewEngine(qperf.EngineConfig{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Plan("select * from nonexistent"); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, err := engine.Plan("not sql at all ("); err == nil {
		t.Fatal("parse error must surface")
	}
	if _, err := qperf.NewEngine(qperf.EngineConfig{ScaleFactor: -1}); err == nil {
		t.Fatal("negative SF must fail")
	}
}

func TestWorkloadAndPredictorsEndToEnd(t *testing.T) {
	train := apiTrainingWorkload(t)
	if train.Len() != 32 {
		t.Fatalf("train size %d", train.Len())
	}
	test, err := qperf.BuildWorkload(qperf.WorkloadConfig{
		ScaleFactor: 0.003,
		Templates:   []int{1, 3, 6, 12},
		PerTemplate: 2,
		Seed:        999,
	})
	if err != nil {
		t.Fatal(err)
	}

	baseline, err := qperf.TrainCostBaseline(train)
	if err != nil {
		t.Fatal(err)
	}
	planLevel, err := qperf.TrainPlanLevel(train)
	if err != nil {
		t.Fatal(err)
	}
	opLevel, err := qperf.TrainOperatorLevel(train)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := qperf.TrainHybrid(train, qperf.ErrorBased)
	if err != nil {
		t.Fatal(err)
	}
	online, err := qperf.NewOnlinePredictor(train)
	if err != nil {
		t.Fatal(err)
	}

	results := map[string]float64{}
	for _, p := range []qperf.Predictor{baseline, planLevel, opLevel, hybrid, online} {
		mre, skipped, err := qperf.MeanRelativeError(p, test)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if math.IsNaN(mre) || mre < 0 {
			t.Fatalf("%s: bad MRE %v", p.Name(), mre)
		}
		if skipped != 0 {
			t.Fatalf("%s: unexpected skips %d", p.Name(), skipped)
		}
		results[p.Name()] = mre
		t.Logf("%-18s MRE=%.3f", p.Name(), mre)
	}
	if results["plan-level"] >= results["cost-model"] {
		t.Fatalf("plan-level (%.3f) must beat cost baseline (%.3f)",
			results["plan-level"], results["cost-model"])
	}
}

// TestTrainMetricPredictor: the plan-level model fits the metrics other
// than latency, names itself after the metric, predicts a finite number
// for every training query, and MeanRelativeError scores it against the
// metric, not the latency.
func TestTrainMetricPredictor(t *testing.T) {
	train := apiTrainingWorkload(t)
	for _, metric := range []qperf.Metric{qperf.MetricPagesRead, qperf.MetricRowsOut} {
		p, err := qperf.TrainMetricPredictor(train, metric)
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if want := "plan-level/" + metric.String(); p.Name() != want {
			t.Errorf("predictor name %q, want %q", p.Name(), want)
		}
		for _, q := range train.Queries() {
			got, err := p.Predict(q)
			if err != nil || math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("%s: t%d predicts %v, %v", p.Name(), q.Template(), got, err)
			}
		}
		mre, skipped, err := qperf.MeanRelativeError(p, train)
		t.Logf("%s: training MRE %v", p.Name(), mre)
		if err != nil || skipped != 0 || !(mre < 1) {
			t.Errorf("%s: training MRE %v (%d skipped, %v), want below 100%% against the metric", p.Name(), mre, skipped, err)
		}
	}
}

// TestWorkloadFilterAndSplit: SplitTemplate filters the held-out
// template's queries into the test side and every other one into the
// training side.
func TestWorkloadFilterAndSplit(t *testing.T) {
	train := apiTrainingWorkload(t)
	tr, te := train.SplitTemplate(3)
	if te.Len() != 8 || tr.Len() != 24 {
		t.Fatalf("split %d/%d", tr.Len(), te.Len())
	}
	for _, q := range te.Queries() {
		if q.Template() != 3 {
			t.Fatalf("test side holds t%d", q.Template())
		}
	}
	for _, q := range tr.Queries() {
		if q.Template() == 3 {
			t.Fatal("training side holds the held-out template")
		}
	}
}

func TestQueryAccessors(t *testing.T) {
	train := apiTrainingWorkload(t)
	q := train.Queries()[0]
	if q.Template() == 0 || q.Latency() <= 0 {
		t.Fatalf("query accessors: %d %v", q.Template(), q.Latency())
	}
}

// TestTemplateListsAndGenerate: GenerateQuery draws every listed
// template and refuses one that is not.
func TestTemplateListsAndGenerate(t *testing.T) {
	for _, tmpl := range tpch.Templates {
		if _, err := qperf.GenerateQuery(tmpl, 1); err != nil {
			t.Fatalf("t%d: %v", tmpl, err)
		}
	}
	sqlText, err := qperf.GenerateQuery(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sqlText, "c_mktsegment") {
		t.Fatalf("generated Q3: %s", sqlText)
	}
	if _, err := qperf.GenerateQuery(99, 1); err == nil {
		t.Fatal("unknown template must fail")
	}
}
