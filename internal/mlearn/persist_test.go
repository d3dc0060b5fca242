package mlearn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// unmarshalJSON decodes a model state from its JSON bytes and restores it.
func unmarshalJSON(data []byte, width int) (Regressor, error) {
	var st *ModelState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return UnmarshalModel(st, width)
}

// roundTrip takes m through the JSON bytes a snapshot file holds and
// requires bit-identical predictions back.
func roundTrip(t *testing.T, m Regressor, x *Matrix) Regressor {
	t.Helper()
	st, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := unmarshalJSON(data, x.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if a, b := m.Predict(x.Row(i)), loaded.Predict(x.Row(i)); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round-trip prediction diverges: %v vs %v", a, b)
		}
	}
	return loaded
}

func persistTrainingData(seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := NewMatrix(60, 3)
	y := make([]float64, 60)
	for i := 0; i < 60; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = 2*x.At(i, 0) - x.At(i, 1) + 0.5
	}
	return x, y
}

func TestMarshalRoundTripAllModels(t *testing.T) {
	x, y := persistTrainingData(1)

	lr := NewLinearRegression(0.01)
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, lr, x)

	rlr := NewRelativeLinearRegression(0.01)
	if err := rlr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, rlr, x)

	svr := NewNuSVR(10, 0.5)
	if err := svr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, svr, x)

	scaled := NewScaledModel(NewNuSVR(5, 0.3))
	if err := scaled.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, scaled, x)

	c := &ConstantModel{}
	if err := c.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, x)
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := unmarshalJSON([]byte("nope"), 1); err == nil {
		t.Fatal("garbage must fail")
	}
	for _, body := range []string{`null`, `{}`, `{"alien":{}}`, `{"constant":{"value":1},"linreg":{"coef":[0]}}`} {
		if _, err := unmarshalJSON([]byte(body), 1); err == nil || !strings.Contains(err.Error(), "want exactly one") {
			t.Errorf("%s: error %v, want one naming the model count", body, err)
		}
	}
	type weird struct{ Regressor }
	if _, err := MarshalModel(weird{}); err == nil {
		t.Fatal("unsupported model must fail to marshal")
	}
}

// TestUnmarshalRefusesInconsistentState feeds model states whose
// dimensions disagree with each other or with the input width. Before
// they were checked, the first four loaded: the short sv_data made
// Predict read a support vector past the decoded values, and the others
// panicked at the first Predict (the long coef by slice bounds, the
// narrow x_means by index, the long linreg coef in Dot). Each is a load
// error naming the field now, and the well-formed states still load and
// predict.
func TestUnmarshalRefusesInconsistentState(t *testing.T) {
	svr := func(coef string, rows, cols int, data string) string {
		return fmt.Sprintf(`{"svr":{"c":10,"nu":0.5,"gamma":0.5,"coef":%s,"b":0.25,"sv_rows":%d,"sv_cols":%d,"sv_data":%s}}`,
			coef, rows, cols, data)
	}
	scaled := func(means, stds, inner string) string {
		return fmt.Sprintf(`{"scaled":{"inner":%s,"scale_target":true,"target_scaled":true,"y_mean":3,"y_std":2,"x_means":%s,"x_stds":%s}}`,
			inner, means, stds)
	}
	goodSVR := svr(`[1,-0.5]`, 2, 2, `[0,1,1,0]`)
	for _, tc := range []struct {
		name, body string
		want       string // "" = must load and predict a finite number
	}{
		{"svr: three sv_data values for 2 x 2", svr(`[1,-0.5]`, 2, 2, `[0,1,1]`), "sv_data has 3 values"},
		{"svr: coef longer than sv_rows", svr(`[1,-0.5,2]`, 2, 2, `[0,1,1,0]`), "coef has 3 entries, sv_rows is 2"},
		{"scaled: x_means narrower than the inner sv_cols", scaled(`[0]`, `[1]`, goodSVR), "x_means has 1 entries"},
		{"linreg: more coef than the input", `{"linreg":{"coef":[1,2,3],"intercept":0,"lambda":0,"fit_intercept":true}}`, "coef has 3 entries, the input 2"},

		{"svr: sv_cols wider than the input", svr(`[1]`, 1, 3, `[0,1,1]`), "sv_cols is 3"},
		{"scaled: inner sv_cols wider than x_means", scaled(`[0,0]`, `[1,1]`, svr(`[1]`, 1, 3, `[0,1,1]`)), "sv_cols is 3"},
		{"scaled: x_stds narrower than x_means", scaled(`[0,0]`, `[1]`, goodSVR), "x_stds has 1 entries"},
		{"scaled: no inner model", scaled(`[0,0]`, `[1,1]`, `null`), "holds 0 models"},
		{"rel-linreg: d is not the input", `{"rel_linreg":{"lambda":0,"floor_frac":0.01,"coef":[1,2],"d":1}}`, "d is 1"},
		{"rel-linreg: coef shorter than d+1", `{"rel_linreg":{"lambda":0,"floor_frac":0.01,"coef":[1,2],"d":2}}`, "coef has 2 entries, d+1 is 3"},

		{"svr: well formed", goodSVR, ""},
		{"svr: no support vector", svr(`[]`, 0, 0, `[]`), ""},
		{"scaled: well formed", scaled(`[0,0]`, `[1,1]`, goodSVR), ""},
		{"linreg: well formed", `{"linreg":{"coef":[1,2],"intercept":0,"lambda":0,"fit_intercept":true}}`, ""},
	} {
		m, err := unmarshalJSON([]byte(tc.body), 2)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && math.IsNaN(m.Predict([]float64{0.5, 1})):
			t.Errorf("%s: predicts NaN", tc.name)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
