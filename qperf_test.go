package qperf_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"qpp"
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
	li, _ := engine.DB().Table("lineitem")
	if res.Rows[0][0].I() != int64(li.Rows.Len()) {
		t.Fatalf("count %v want %d", res.Rows[0][0], li.Rows.Len())
	}
	analyzed, err := engine.ExplainAnalyze("select count(*) from nation", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(analyzed, "actual time=") {
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
// than latency, names itself after the metric, and predicts a finite
// number for every training query.
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
	}
}

func TestWorkloadFilterAndSplit(t *testing.T) {
	train := apiTrainingWorkload(t)
	only1 := train.Filter([]int{1})
	if only1.Len() != 8 {
		t.Fatalf("filter %d", only1.Len())
	}
	tr, te := train.SplitTemplate(3)
	if te.Len() != 8 || tr.Len() != 24 {
		t.Fatalf("split %d/%d", tr.Len(), te.Len())
	}
	rebuilt := qperf.NewWorkload(train.Queries())
	if rebuilt.Len() != train.Len() {
		t.Fatal("NewWorkload round trip")
	}
}

func TestQueryAccessors(t *testing.T) {
	train := apiTrainingWorkload(t)
	q := train.Queries()[0]
	if q.Template() == 0 || q.SQL() == "" || q.Latency() <= 0 || q.Plan() == nil {
		t.Fatalf("query accessors: %d %q %v", q.Template(), q.SQL()[:20], q.Latency())
	}
}

func TestRecordFromAdHocQuery(t *testing.T) {
	engine, err := qperf.NewEngine(qperf.EngineConfig{ScaleFactor: 0.002, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const sqlText = "select o_orderpriority, count(*) from orders group by o_orderpriority"
	res, err := engine.Run(sqlText, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Record(0, sqlText)
	if q.Latency() != res.Elapsed {
		t.Fatal("record latency mismatch")
	}
}

func TestTemplateListsAndGenerate(t *testing.T) {
	if len(qperf.Templates()) != 18 {
		t.Fatalf("templates %v", qperf.Templates())
	}
	if len(qperf.OperatorLevelTemplates()) != 14 {
		t.Fatal("op templates")
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
