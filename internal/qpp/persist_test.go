package qpp_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"qpp/internal/qpp"
	"qpp/internal/workload"
)

// trainModelSet fits the served model set — plan-level, hybrid with its
// operator-level models, cost baseline — on recs, which must be free of
// sub-query structures.
func trainModelSet(tb testing.TB, recs []*qpp.QueryRecord, maxIters int) (*qpp.PlanLevelPredictor, *qpp.HybridPredictor, *qpp.CostModelBaseline) {
	tb.Helper()
	pl, err := qpp.TrainPlanLevel(recs, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := qpp.DefaultHybridConfig(qpp.ErrorBased)
	cfg.MaxIters = maxIters
	hy, _, err := qpp.TrainHybrid(recs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	base, err := qpp.TrainCostBaseline(recs)
	if err != nil {
		tb.Fatal(err)
	}
	return pl, hy, base
}

func saveModels(tb testing.TB, pl *qpp.PlanLevelPredictor, hy *qpp.HybridPredictor, base *qpp.CostModelBaseline) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := qpp.SaveModels(&buf, pl, hy, base); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// modelSet is one served model set.
type modelSet struct {
	pl   *qpp.PlanLevelPredictor
	hy   *qpp.HybridPredictor
	base *qpp.CostModelBaseline
}

var materializedCache [2]*modelSet

// materialized trains a model set on the shared dataset once and returns
// it with its copy saved and loaded back through one document.
func materialized(t *testing.T) (orig, loaded *modelSet, recs []*qpp.QueryRecord) {
	t.Helper()
	recs = opOnly(testDataset(t).Records)
	if materializedCache[0] == nil {
		pl, hy, base := trainModelSet(t, recs, 6)
		lpl, lhy, lbase, err := qpp.LoadModels(bytes.NewReader(saveModels(t, pl, hy, base)))
		if err != nil {
			t.Fatal(err)
		}
		materializedCache = [2]*modelSet{{pl, hy, base}, {lpl, lhy, lbase}}
	}
	return materializedCache[0], materializedCache[1], recs
}

// sameBits fails the test unless the trained and the materialized
// model's predictions are bit-identical.
func sameBits(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("materialized %s diverges: %v vs %v", what, a, b)
	}
}

func TestPlanLevelMaterialization(t *testing.T) {
	orig, loaded, recs := materialized(t)
	for _, r := range recs {
		sameBits(t, "plan-level model", orig.pl.Predict(r), loaded.pl.Predict(r))
	}
}

func TestOperatorLevelMaterialization(t *testing.T) {
	orig, loaded, recs := materialized(t)
	for _, r := range recs {
		a, _ := orig.hy.Ops.Predict(r, qpp.ChildTimesPredicted)
		b, _ := loaded.hy.Ops.Predict(r, qpp.ChildTimesPredicted)
		sameBits(t, "op models", a, b)
	}
}

func TestHybridMaterialization(t *testing.T) {
	orig, loaded, recs := materialized(t)
	if loaded.hy.NumPlanModels() != orig.hy.NumPlanModels() {
		t.Fatalf("plan model count %d vs %d", loaded.hy.NumPlanModels(), orig.hy.NumPlanModels())
	}
	if orig.hy.NumPlanModels() == 0 {
		t.Fatal("no sub-plan model to round-trip")
	}
	for _, r := range recs {
		a, _ := orig.hy.Predict(r)
		b, _ := loaded.hy.Predict(r)
		sameBits(t, "hybrid", a, b)
	}
}

// TestCostBaselineMaterialization round-trips the Section 5.2 baseline.
func TestCostBaselineMaterialization(t *testing.T) {
	orig, loaded, recs := materialized(t)
	for _, r := range recs {
		sameBits(t, "baseline", orig.base.Predict(r), loaded.base.Predict(r))
	}
}

// TestSaveModelsRefusesPartialSets: the document holds one whole set
// under one feature mode, so a missing predictor or a second mode is a
// save error, not a file that loads as something else.
func TestSaveModelsRefusesPartialSets(t *testing.T) {
	recs := opOnly(testDataset(t).Records)
	pl, hy, base := trainModelSet(t, recs, 1)
	actuals := *pl
	actuals.Mode = qpp.FeatActuals
	noOps := *hy
	noOps.Ops = nil
	for _, tc := range []struct {
		name string
		pl   *qpp.PlanLevelPredictor
		hy   *qpp.HybridPredictor
		base *qpp.CostModelBaseline
		want string
	}{
		{"no plan-level", nil, hy, base, "all required"},
		{"no hybrid", pl, nil, base, "all required"},
		{"no operator-level", pl, &noOps, base, "all required"},
		{"no baseline", pl, hy, nil, "all required"},
		{"plan-level on actuals", &actuals, hy, base, "feature modes differ"},
	} {
		if err := qpp.SaveModels(&bytes.Buffer{}, tc.pl, tc.hy, tc.base); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, body := range []string{"not json", "{", "[]", ""} {
		if _, _, _, err := qpp.LoadModels(strings.NewReader(body)); err == nil {
			t.Errorf("%q must fail to load", body)
		}
	}
}

// TestLoadRejectsFormatMismatch covers the stale-snapshot failure mode:
// a serving process handed a file from a different format revision must
// refuse it with a version error, never load-and-mispredict. Version 0
// doubles as the missing-field case (pre-versioning snapshots decode to
// the zero value); 1 and 2 are the revisions of the per-predictor files.
func TestLoadRejectsFormatMismatch(t *testing.T) {
	good := modelsDoc(constantModel(qpp.NumPlanFeatures()), "")
	if _, _, _, err := qpp.LoadModels(strings.NewReader(good)); err != nil {
		t.Fatalf("the current version must load: %v", err)
	}
	current := fmt.Sprintf(`"format":%d`, qpp.FormatVersion)
	for _, v := range []int{0, 1, 2, 99} {
		body := strings.Replace(good, current, fmt.Sprintf(`"format":%d`, v), 1)
		_, _, _, err := qpp.LoadModels(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), "format version") || !strings.Contains(err.Error(), "retrain and re-save") {
			t.Errorf("version %d must be refused, got: %v", v, err)
		}
	}
}

// modelsDoc is a model document holding the plan-level model plan and
// the further fields rest.
func modelsDoc(plan, rest string) string {
	if rest != "" {
		rest = "," + rest
	}
	return fmt.Sprintf(`{"format":%d,"mode":0,"plan":%s%s}`, qpp.FormatVersion, plan, rest)
}

// bounds is a JSON array of n zeros.
func bounds(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("0,", n), ",") + "]"
}

// constantModel is a persisted model answering a constant from no
// feature column of a width-wide vector.
func constantModel(width int) string {
	return fmt.Sprintf(`{"cols":[],"model":{"constant":{"value":1}},"lo":%s,"hi":%s}`, bounds(width), bounds(width))
}

// inconsistentStates are model documents whose states Predict or InRange
// would index a feature row out of range with, each with the error it
// must be refused with, and consistent ones ("" = must load).
func inconsistentStates() []struct{ name, body, want string } {
	const constant = `{"constant":{"value":1}}`
	planW, opW := qpp.NumPlanFeatures(), qpp.NumOpFeatures()
	goodPlan := constantModel(planW)
	model := func(cols string, lo, hi int) string {
		return fmt.Sprintf(`{"cols":%s,"model":%s,"lo":%s,"hi":%s}`, cols, constant, bounds(lo), bounds(hi))
	}
	// The regressor sees the len(cols) selected features.
	linreg := func(cols, coef string, width int) string {
		return fmt.Sprintf(`{"cols":%s,"model":{"linreg":{"coef":%s,"intercept":0,"lambda":0,"fit_intercept":true}},"lo":%s,"hi":%s}`,
			cols, coef, bounds(width), bounds(width))
	}
	planLevel := func(m string) string { return modelsDoc(m, "") }
	opLevel := func(start string) string { return modelsDoc(goodPlan, `"start":`+start) }
	hybrid := func(plans string) string { return modelsDoc(goodPlan, `"plans":`+plans) }
	return []struct{ name, body, want string }{
		{"hybrid: sub-plan entry without models", hybrid(`{"x":{}}`), "no model for sub-plan x start"},
		{"operator-level: null start model", opLevel(`{"SeqScan":null}`), "no model for SeqScan start"},
		{"plan-level: column 999, one lo, no hi", planLevel(`{"cols":[999],"model":` + constant + `,"lo":[0],"hi":[]}`), "lo has 1 entries"},

		{"plan-level: no model", planLevel(`null`), "no model for plan-level"},
		{"plan-level: no regressor", planLevel(fmt.Sprintf(`{"cols":[],"lo":%s,"hi":%s}`, bounds(planW), bounds(planW))), "holds 0 models"},
		{"hybrid: null sub-plan entry", hybrid(`{"x":null}`), "no model for sub-plan x start"},
		{"hybrid: sub-plan entry without a run model", hybrid(`{"x":{"start":` + model(`[0]`, planW, planW) + `}}`), "no model for sub-plan x run"},
		{"plan-level: lo shorter than hi", planLevel(model(`[0]`, planW-1, planW)), "lo has"},
		{"plan-level: hi shorter than lo", planLevel(model(`[0]`, planW, planW-1)), "hi has"},
		{"plan-level: operator-width bounds", planLevel(model(`[0]`, opW, opW)), "lo has"},
		{"operator-level: plan-width bounds", opLevel(`{"SeqScan":` + model(`[0]`, planW, planW) + `}`), "lo has"},
		{"plan-level: column past the vector", planLevel(model(fmt.Sprintf(`[0,%d]`, planW), planW, planW)), "cols names column"},
		{"plan-level: negative column", planLevel(model(`[-1]`, planW, planW)), "cols names column -1"},
		{"operator-level: column past the vector", opLevel(`{"SeqScan":` + model(fmt.Sprintf(`[%d]`, opW), opW, opW) + `}`), "cols names column"},
		{"plan-level: regressor wider than cols", planLevel(linreg(`[0]`, `[1,2]`, planW)), "coef has 2 entries, the input 1"},
		{"operator-level: regressor narrower than cols", opLevel(`{"SeqScan":` + linreg(`[0,1]`, `[1]`, opW) + `}`), "coef has 1 entries, the input 2"},
		{"hybrid: sub-plan regressor wider than cols", hybrid(`{"x":{"start":` + linreg(`[0]`, `[1,2,3]`, planW) + `,"run":` + model(`[1]`, planW, planW) + `}}`), "sub-plan x start: mlearn: linreg: coef has 3 entries"},

		{"plan-level: consistent", planLevel(model(fmt.Sprintf(`[0,%d]`, planW-1), planW, planW)), ""},
		{"operator-level: consistent", opLevel(`{"SeqScan":` + model(`[0]`, opW, opW) + `}`), ""},
		{"hybrid: consistent", hybrid(`{"x":{"start":` + model(`[0]`, planW, planW) + `,"run":` + model(`[1]`, planW, planW) + `}}`), ""},
		{"plan-level: regressor as wide as cols", planLevel(linreg(`[0,2]`, `[1,2]`, planW)), ""},
	}
}

// TestLoadRejectsInconsistentModelState: snapshot files are outside input
// (qppserve -models, POST /reload). A model state that Predict or InRange
// would index a feature row out of range with must be a load error that
// names the field; before the loaders checked, the first two bodies died
// with a nil dereference at load and the third inside the first request.
// The regressor's own input width must equal len(cols) too (its own
// dimensions are mlearn's TestUnmarshalRefusesInconsistentState).
func TestLoadRejectsInconsistentModelState(t *testing.T) {
	for _, tc := range inconsistentStates() {
		_, _, _, err := qpp.LoadModels(strings.NewReader(tc.body))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzLoadModels: a model document is outside input. LoadModels must
// never panic, and a set that loads must predict planned queries — every
// model, and the confidence check — without panicking. Seeds are one
// trained set's document and the bodies of
// TestLoadRejectsInconsistentModelState.
func FuzzLoadModels(f *testing.F) {
	ds, err := workload.Build(workload.Config{
		ScaleFactor: 0.002,
		Templates:   []int{1, 3, 6, 10, 14},
		PerTemplate: 4,
		Seed:        5,
	})
	if err != nil {
		f.Fatal(err)
	}
	pl, hy, base := trainModelSet(f, ds.Records, 2)
	f.Add(saveModels(f, pl, hy, base))
	for _, tc := range inconsistentStates() {
		f.Add([]byte(tc.body))
	}
	var queries []*qpp.QueryRecord
	for i := 0; i < len(ds.Records); i += 4 {
		queries = append(queries, ds.Records[i])
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		pl, hy, base, err := qpp.LoadModels(bytes.NewReader(doc))
		if err != nil {
			return
		}
		for _, r := range queries {
			feats := qpp.PlanFeatures(r.Root, pl.Mode)
			pl.Model.Predict(feats)
			pl.Model.InRange(feats, qpp.ApplicabilityMargin)
			base.Predict(r)
			hy.Ops.Predict(r, qpp.ChildTimesPredicted)
			hy.Predict(r)
		}
	})
}
