package mlearn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, m Regressor, x *Matrix) Regressor {
	t.Helper()
	data, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalModel(data, x.Cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if a, b := m.Predict(x.Row(i)), loaded.Predict(x.Row(i)); a != b {
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
	if _, err := UnmarshalModel([]byte("nope"), 1); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := UnmarshalModel([]byte(`{"type":"alien","state":{}}`), 1); err == nil {
		t.Fatal("unknown type must fail")
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
	svr := func(kind, kernel int, coef string, rows, cols int, data string) string {
		return fmt.Sprintf(`{"type":"svr","state":{"kind":%d,"kernel":%d,"c":10,"epsilon":0.1,"nu":0.5,"gamma":0.5,"coef":%s,"b":0.25,"sv_rows":%d,"sv_cols":%d,"sv_data":%s}}`,
			kind, kernel, coef, rows, cols, data)
	}
	scaled := func(means, stds, inner string) string {
		return fmt.Sprintf(`{"type":"scaled","state":{"inner":%s,"scale_target":true,"target_scaled":true,"y_mean":3,"y_std":2,"x_means":%s,"x_stds":%s}}`,
			inner, means, stds)
	}
	goodSVR := svr(1, 0, `[1,-0.5]`, 2, 2, `[0,1,1,0]`)
	for _, tc := range []struct {
		name, body string
		want       string // "" = must load and predict a finite number
	}{
		{"svr: three sv_data values for 2 x 2", svr(1, 0, `[1,-0.5]`, 2, 2, `[0,1,1]`), "sv_data has 3 values"},
		{"svr: coef longer than sv_rows", svr(1, 0, `[1,-0.5,2]`, 2, 2, `[0,1,1,0]`), "coef has 3 entries, sv_rows is 2"},
		{"scaled: x_means narrower than the inner sv_cols", scaled(`[0]`, `[1]`, goodSVR), "x_means has 1 entries"},
		{"linreg: more coef than the input", `{"type":"linreg","state":{"coef":[1,2,3],"intercept":0,"lambda":0,"fit_intercept":true}}`, "coef has 3 entries, the input 2"},

		{"svr: the epsilon formulation", svr(0, 0, `[1,-0.5]`, 2, 2, `[0,1,1,0]`), "kind 0"},
		{"svr: the linear kernel", svr(1, 1, `[1,-0.5]`, 2, 2, `[0,1,1,0]`), "kernel 1"},
		{"svr: sv_cols wider than the input", svr(1, 0, `[1]`, 1, 3, `[0,1,1]`), "sv_cols is 3"},
		{"scaled: inner sv_cols wider than x_means", scaled(`[0,0]`, `[1,1]`, svr(1, 0, `[1]`, 1, 3, `[0,1,1]`)), "sv_cols is 3"},
		{"scaled: x_stds narrower than x_means", scaled(`[0,0]`, `[1]`, goodSVR), "x_stds has 1 entries"},
		{"rel-linreg: d is not the input", `{"type":"rel-linreg","state":{"lambda":0,"floor_frac":0.01,"coef":[1,2],"d":1}}`, "d is 1"},
		{"rel-linreg: coef shorter than d+1", `{"type":"rel-linreg","state":{"lambda":0,"floor_frac":0.01,"coef":[1,2],"d":2}}`, "coef has 2 entries, d+1 is 3"},

		{"svr: well formed", goodSVR, ""},
		{"svr: no support vector", svr(1, 0, `[]`, 0, 0, `[]`), ""},
		{"scaled: well formed", scaled(`[0,0]`, `[1,1]`, goodSVR), ""},
		{"linreg: well formed", `{"type":"linreg","state":{"coef":[1,2],"intercept":0,"lambda":0,"fit_intercept":true}}`, ""},
	} {
		m, err := UnmarshalModel([]byte(tc.body), 2)
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
