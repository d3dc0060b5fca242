package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"qpp/internal/serve"
)

func TestPercentileMatchesServe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 5400} {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.ExpFloat64()
		}
		sort.Float64s(s)
		for _, q := range []float64{0.001, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			if got, want := percentile(s, q), serve.Percentile(s, q); got != want {
				t.Errorf("n=%d q=%g: percentile %v, serve.Percentile %v", n, q, got, want)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19600, 0.99}, // serve_hot: p99.9 is never used, p99 is the ladder's top
		{5400, 0.99},
		{1000, 0.99}, // rank 990, 10 beyond
		{999, 0.95},  // p99 would leave 9
		{216, 0.95},  // batch_exec: rank 206, 10 beyond
		{200, 0.95},  // rank 190, 10 beyond
		{199, 0.90},
		{108, 0.90}, // rank 98, 10 beyond
		{100, 0.90},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{4, 0.5},
		{1, 0.5},
	} {
		got := tailQuantile(c.n)
		if got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got != 0.5 && c.n-tailRank(c.n, got) < minBeyond {
			t.Errorf("tailQuantile(%d) = %g leaves %d beyond", c.n, got, c.n-tailRank(c.n, got))
		}
	}
}

func TestTailOfSample(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // unsorted: 1000 … 1
	}
	v, q := tail(s)
	if q != 0.99 || v != 990 {
		t.Errorf("tail = %v at q=%v, want 990 at 0.99", v, q)
	}
	if s[0] != 1000 {
		t.Error("tail sorted its argument in place")
	}
}

func TestTailMeanAveragesFromThePercentileOn(t *testing.T) {
	s := make([]float64, 216)
	for i := range s {
		s[i] = float64(216 - i) // unsorted: 216 … 1
	}
	// p95 of 216 is rank 206; the tail is ranks 206 … 216, 11 ops.
	v, q := tailMean(s)
	if q != 0.95 || v != 211 {
		t.Errorf("tailMean = %v at q=%v, want 211 at 0.95", v, q)
	}
	if s[0] != 216 {
		t.Error("tailMean sorted its argument in place")
	}
	// Moving the op on the percentile's rank moves the percentile by all
	// of the change and the tail mean by an eleventh of it.
	s[216-206] = 100
	if p, _ := tail(s); p != 205 {
		t.Errorf("p95 = %v after the edge op moved, want 205", p)
	}
	if v, _ := tailMean(s); math.Abs(v-(211-1.0/11)) > 1e-9 {
		t.Errorf("tailMean = %v after the edge op moved, want 211 - 1/11", v)
	}
	if v, _ := tailMean(nil); v != 0 {
		t.Errorf("empty sample: %v", v)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestMedianBestSum(t *testing.T) {
	for _, c := range []struct {
		in           []float64
		median, best float64
	}{
		{nil, 0, 0},
		{[]float64{3}, 3, 3},
		{[]float64{3, 1}, 2, 1},
		{[]float64{5, 1, 3}, 3, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
		{[]float64{9, 2, 7, 4, 5}, 5, 2},
	} {
		if got := median(c.in); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.median)
		}
		if got := best(c.in); got != c.best {
			t.Errorf("best(%v) = %v, want %v", c.in, got, c.best)
		}
	}
	if got := sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("sum = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v", got)
	}
}

// The expected values are Python's: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 4.5},
		{[]float64{1.2, 1.1, 1.4, 1.3}, 1.125, 1.375},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(10, 12, "lower"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("lower-is-better 10→12: %v", got)
	}
	if got := worsening(10, 8, "higher"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("higher-is-better 10→8: %v", got)
	}
	if got := worsening(10, 9, "lower"); got >= 0 {
		t.Errorf("an improvement reads as worsening %v", got)
	}
}
