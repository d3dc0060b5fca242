package mlearn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1)=%v", m.At(2, 1))
	}
}

func TestMatrixFromRowsRagged(t *testing.T) {
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestMatrixFromRowsEmpty(t *testing.T) {
	m, err := MatrixFromRows(nil)
	if err != nil || m.Rows != 0 {
		t.Fatalf("empty: %v %v", m, err)
	}
}

func TestCholeskySolveRandomSPD(t *testing.T) {
	// Build SPD A = M^T M + I and verify A*x == b after solving.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, Dot(m.Col(i), m.Col(j)))
			}
			a.Set(i, i, a.At(i, i)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := CholeskySolve(a, b)
		if err != nil {
			return false
		}
		for i := range b {
			if !almostEqual(Dot(a.Row(i), x), b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySingular(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := CholeskySolve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("mean %v", Mean(v))
	}
	if Variance(v) != 4 {
		t.Fatalf("var %v", Variance(v))
	}
	if StdDev(v) != 2 {
		t.Fatalf("std %v", StdDev(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-input stats should be 0")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
