package mlearn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNuSVRNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 120
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()*6 - 3
		x.Set(i, 0, v)
		y[i] = math.Sin(v)
	}
	s := NewNuSVR(10, 0.5)
	s.Gamma = 1
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var sse float64
	for _, v := range []float64{-2, -1, -0.5, 0, 0.5, 1, 2} {
		d := s.Predict([]float64{v}) - math.Sin(v)
		sse += d * d
	}
	if rmse := math.Sqrt(sse / 7); rmse > 0.12 {
		t.Fatalf("rmse %v too high for sin fit", rmse)
	}
}

func TestNuSVRInterpolatesTrainingData(t *testing.T) {
	// On a smooth 2-D target a trained nu-SVR should achieve a small
	// training error; this is the interpolation invariant QPP relies on.
	rng := rand.New(rand.NewSource(5))
	n := 100
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = a*a + b
	}
	s := NewNuSVR(50, 0.6)
	s.Gamma = 2
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := PredictAll(s, x)
	if rmse := RMSE(y, pred); rmse > 0.1 {
		t.Fatalf("training rmse %v too high", rmse)
	}
	if s.NumSupportVectors() == 0 || s.NumSupportVectors() > n {
		t.Fatalf("unexpected SV count %d", s.NumSupportVectors())
	}
}

func TestSVRConstantTarget(t *testing.T) {
	x := NewMatrix(10, 1)
	y := make([]float64, 10)
	for i := range y {
		x.Set(i, 0, float64(i))
		y[i] = 7
	}
	s := &SVR{C: 1}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := s.Predict([]float64{3.5}); math.Abs(got-7) > 0.2 {
		t.Fatalf("got %v want ~7", got)
	}
}

func TestSVRErrors(t *testing.T) {
	s := NewNuSVR(1, 0.5)
	if err := s.Fit(NewMatrix(0, 1), nil); err == nil {
		t.Fatal("expected error on empty training set")
	}
	if err := s.Fit(NewMatrix(2, 1), []float64{1}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestScaledModelRoundTrip(t *testing.T) {
	// Targets far from zero with tiny variance: scaling must still let the
	// SVR recover the structure and map back to original units.
	rng := rand.New(rand.NewSource(6))
	n := 60
	x := NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64() * 1000
		x.Set(i, 0, v)
		y[i] = 5000 + 3*v
	}
	m := NewScaledModel(NewNuSVR(10, 0.5))
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]float64{500})
	if math.Abs(got-6500)/6500 > 0.05 {
		t.Fatalf("got %v want ~6500", got)
	}
}

func TestStandardizerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := NewMatrix(40, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()*5 + 10
	}
	st := FitStandardizer(x)
	xt := st.Transform(x)
	for j := 0; j < 3; j++ {
		col := xt.Col(j)
		if !almostEqual(Mean(col)+1, 1, 1e-9) {
			t.Fatalf("col %d mean %v", j, Mean(col))
		}
		if !almostEqual(StdDev(col), 1, 1e-9) {
			t.Fatalf("col %d std %v", j, StdDev(col))
		}
	}
}

func TestStandardizerConstantColumn(t *testing.T) {
	x := NewMatrix(5, 1)
	for i := 0; i < 5; i++ {
		x.Set(i, 0, 42)
	}
	st := FitStandardizer(x)
	xt := st.Transform(x)
	for i := 0; i < 5; i++ {
		if xt.At(i, 0) != 0 {
			t.Fatalf("constant column should center to 0, got %v", xt.At(i, 0))
		}
	}
}
