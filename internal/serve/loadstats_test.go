package serve

import "testing"

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 5},
		{0.99, 10},
		{1.00, 10},
		{0.10, 1},
		{0.001, 1},
	} {
		if got := Percentile(sorted, tc.q); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.q*100, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %g", got)
	}
}
