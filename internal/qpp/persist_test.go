package qpp_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"qpp/internal/qpp"
)

func TestPlanLevelMaterialization(t *testing.T) {
	ds := testDataset(t)
	orig, err := qpp.TrainPlanLevel(ds.Records, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := qpp.LoadPlanLevel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		a, b := orig.Predict(r), loaded.Predict(r)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("materialized model diverges: %v vs %v", a, b)
		}
	}
}

func TestOperatorLevelMaterialization(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	orig, err := qpp.TrainOperatorModels(recs, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := qpp.LoadOperatorLevel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		a, _ := orig.Predict(r, qpp.ChildTimesPredicted)
		b, _ := loaded.Predict(r, qpp.ChildTimesPredicted)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("materialized op models diverge: %v vs %v", a, b)
		}
	}
}

func TestHybridMaterialization(t *testing.T) {
	ds := testDataset(t)
	recs := opOnly(ds.Records)
	cfg := qpp.DefaultHybridConfig(qpp.ErrorBased)
	cfg.MaxIters = 6
	orig, _, err := qpp.TrainHybrid(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := qpp.LoadHybrid(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPlanModels() != orig.NumPlanModels() {
		t.Fatalf("plan model count %d vs %d", loaded.NumPlanModels(), orig.NumPlanModels())
	}
	if orig.NumPlanModels() == 0 {
		t.Fatal("no sub-plan model to round-trip")
	}
	for _, r := range recs {
		a, _ := orig.Predict(r)
		b, _ := loaded.Predict(r)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("materialized hybrid diverges: %v vs %v", a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := qpp.LoadPlanLevel(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := qpp.LoadOperatorLevel(strings.NewReader("{")); err == nil {
		t.Fatal("truncated json must fail")
	}
	if _, err := qpp.LoadHybrid(strings.NewReader("[]")); err == nil {
		t.Fatal("wrong shape must fail")
	}
}

// TestCostBaselineMaterialization round-trips the Section 5.2 baseline.
func TestCostBaselineMaterialization(t *testing.T) {
	ds := testDataset(t)
	orig, err := qpp.TrainCostBaseline(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := qpp.LoadCostBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records[:10] {
		if a, b := orig.Predict(r), loaded.Predict(r); a != b {
			t.Fatalf("materialized baseline diverges: %v vs %v", a, b)
		}
	}
}

// TestLoadRejectsFormatMismatch covers the stale-snapshot failure mode:
// a serving process handed a file from a different format revision must
// refuse it with a version error, never load-and-mispredict. Version 0
// doubles as the missing-field case (pre-versioning snapshots decode to
// the zero value).
func TestLoadRejectsFormatMismatch(t *testing.T) {
	ds := testDataset(t)
	pl, err := qpp.TrainPlanLevel(ds.Records, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if !strings.Contains(good, `"format":2`) {
		t.Fatalf("saved state does not carry the format version: %s", good[:80])
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"missing version", strings.Replace(good, `"format":2`, `"format":0`, 1)},
		{"future version", strings.Replace(good, `"format":2`, `"format":99`, 1)},
	} {
		_, err := qpp.LoadPlanLevel(strings.NewReader(tc.body))
		if err == nil {
			t.Fatalf("%s: load must fail", tc.name)
		}
		if !strings.Contains(err.Error(), "format version") {
			t.Fatalf("%s: error should name the format version, got: %v", tc.name, err)
		}
	}

	// The same gate guards every loader, against pre-versioning files
	// (0) and against the previous revision (1: operator models without a
	// training range).
	for _, v := range []int{0, 1} {
		body := fmt.Sprintf(`{"format":%d}`, v)
		for name, load := range map[string]func() error{
			"plan-level":     func() error { _, err := qpp.LoadPlanLevel(strings.NewReader(body)); return err },
			"operator-level": func() error { _, err := qpp.LoadOperatorLevel(strings.NewReader(body)); return err },
			"hybrid":         func() error { _, err := qpp.LoadHybrid(strings.NewReader(body)); return err },
			"cost-baseline":  func() error { _, err := qpp.LoadCostBaseline(strings.NewReader(body)); return err },
		} {
			if err := load(); err == nil || !strings.Contains(err.Error(), "format version") || !strings.Contains(err.Error(), "retrain and re-save") {
				t.Errorf("%s loader must reject version %d, got: %v", name, v, err)
			}
		}
	}
}

// TestHybridEmbeddedOpsVersionChecked corrupts only the nested
// operator-level blob inside a hybrid snapshot: the embedded loader's
// version gate must still fire.
func TestHybridEmbeddedOpsVersionChecked(t *testing.T) {
	for _, v := range []int{0, 1, 3} {
		body := fmt.Sprintf(`{"format":2,"ops":{"format":%d},"plans":{},"mode":0}`, v)
		if _, err := qpp.LoadHybrid(strings.NewReader(body)); err == nil ||
			!strings.Contains(err.Error(), "format version") {
			t.Fatalf("embedded ops version %d must be refused, got: %v", v, err)
		}
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
	const constant = `{"type":"constant","state":{"value":1}}`
	bounds := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat("0,", n), ",") + "]"
	}
	planW, opW := qpp.NumPlanFeatures(), qpp.NumOpFeatures()
	model := func(cols string, lo, hi int) string {
		return fmt.Sprintf(`{"cols":%s,"model":%s,"lo":%s,"hi":%s}`, cols, constant, bounds(lo), bounds(hi))
	}
	// The regressor sees the len(cols) selected features.
	linreg := func(cols, coef string, width int) string {
		return fmt.Sprintf(`{"cols":%s,"model":{"type":"linreg","state":{"coef":%s,"intercept":0,"lambda":0,"fit_intercept":true}},"lo":%s,"hi":%s}`,
			cols, coef, bounds(width), bounds(width))
	}
	ops := func(start string) string {
		return fmt.Sprintf(`{"format":2,"start":%s,"run":{},"mode":0}`, start)
	}
	planLevel := func(m string) func() error {
		return func() error {
			_, err := qpp.LoadPlanLevel(strings.NewReader(`{"format":2,"model":` + m + `,"mode":0}`))
			return err
		}
	}
	opLevel := func(start string) func() error {
		return func() error { _, err := qpp.LoadOperatorLevel(strings.NewReader(ops(start))); return err }
	}
	hybrid := func(plans string) func() error {
		return func() error {
			_, err := qpp.LoadHybrid(strings.NewReader(`{"format":2,"ops":` + ops(`{}`) + `,"plans":` + plans + `,"mode":0}`))
			return err
		}
	}
	for _, tc := range []struct {
		name string
		load func() error
		want string // "" = must load
	}{
		{"hybrid: sub-plan entry without models", hybrid(`{"x":{}}`), "no model for sub-plan x start"},
		{"operator-level: null start model", opLevel(`{"SeqScan":null}`), "no model for SeqScan start"},
		{"plan-level: column 999, one lo, no hi", planLevel(`{"cols":[999],"model":` + constant + `,"lo":[0],"hi":[]}`), "lo has 1 entries"},

		{"plan-level: no model", planLevel(`null`), "no model for plan-level"},
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
	} {
		err := tc.load()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
