package qpp

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qpp/internal/mlearn"
)

// memoProblem draws a small plan-model training set: enough rows for
// feature selection to run, targets a noisy function of two features.
func memoProblem(seed int64) (*mlearn.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mlearn.NewMatrix(14, 4)
	y := make([]float64, x.Rows)
	for i := range y {
		for j := 0; j < x.Cols; j++ {
			x.Set(i, j, rng.Float64()*10)
		}
		y[i] = 0.5 + x.At(i, 0) + 0.3*x.At(i, 2) + 0.05*rng.Float64()
	}
	return x, y
}

// entries counts the memo's distinct requests.
func (m *TrainMemo) entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.buckets {
		n += len(b)
	}
	return n
}

// requireSamePredictions: a and b predict every row of x to the same bit
// and agree on every row's applicability.
func requireSamePredictions(t *testing.T, what string, a, b *PlanModel, x *mlearn.Matrix) {
	t.Helper()
	for i := 0; i < x.Rows; i++ {
		pa, pb := a.Predict(x.Row(i)), b.Predict(x.Row(i))
		if math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("%s: row %d predicted %v and %v", what, i, pa, pb)
		}
		if a.InRange(x.Row(i), 0) != b.InRange(x.Row(i), 0) {
			t.Fatalf("%s: row %d applicability differs", what, i)
		}
	}
}

// TestTrainMemoCollisionTrainsBoth: with every request forced into one
// hash bucket, different requests still get their own models, each the
// model a memo-less training gives, and a repeated request gets the
// first one back.
func TestTrainMemoCollisionTrainsBoth(t *testing.T) {
	memo := &TrainMemo{hash: func(*mlearn.Matrix, []float64, memoConfig) uint64 { return 7 }}
	cfg := subplanModelConfig(memo)
	direct := cfg
	direct.Memo = nil

	x1, y1 := memoProblem(1)
	x2, y2 := memoProblem(2)
	// Same features, one target off by the sign of a zero: equal as
	// numbers, different bits, so a different request.
	y1z := append([]float64(nil), y1...)
	y1[3], y1z[3] = 0, math.Copysign(0, -1)

	type request struct {
		x *mlearn.Matrix
		y []float64
	}
	reqs := []request{{x1, y1}, {x2, y2}, {x1, y1z}, {x2, y1}}
	got := make([]*PlanModel, len(reqs))
	for i, r := range reqs {
		pm, err := TrainPlanModel(r.x, r.y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, earlier := range got[:i] {
			if earlier == pm {
				t.Fatalf("request %d was handed another request's model", i)
			}
		}
		got[i] = pm
		want, err := TrainPlanModel(r.x, r.y, direct)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePredictions(t, "memo vs direct", pm, want, r.x)
		if !reflect.DeepEqual(pm.SelectedFeatures(), want.SelectedFeatures()) || pm.TrainError != want.TrainError {
			t.Fatalf("request %d: memo selected %v (cv %v), direct %v (cv %v)",
				i, pm.SelectedFeatures(), pm.TrainError, want.SelectedFeatures(), want.TrainError)
		}
	}
	if n := memo.entries(); n != len(reqs) {
		t.Fatalf("%d entries for %d distinct requests", n, len(reqs))
	}
	// Asked again, from fresh buffers holding the same bits.
	for i, r := range reqs {
		pm, err := TrainPlanModel(r.x.Clone(), append([]float64(nil), r.y...), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pm != got[i] {
			t.Fatalf("request %d repeated: trained again", i)
		}
	}
	if n := memo.entries(); n != len(reqs) {
		t.Fatalf("repeats added entries: %d", n)
	}
	// The requester's buffers are not the key: scribbling on them after
	// the call must not change what the memo answers to.
	x1.Set(0, 0, -1)
	if pm, _ := TrainPlanModel(x1, y1, cfg); pm == got[0] {
		t.Fatal("a changed feature matrix still matched the old request")
	}
}

// TestTrainMemoTrainsOncePerKey: goroutines asking for the same few
// models at once share one training per model. Every entry trains
// through its sync.Once, so one entry per distinct request is one
// training per distinct request. Run under -race.
func TestTrainMemoTrainsOncePerKey(t *testing.T) {
	const goroutines, keys = 8, 3
	memo := new(TrainMemo)
	cfg := subplanModelConfig(memo)
	var xs [keys]*mlearn.Matrix
	var ys [keys][]float64
	for k := range xs {
		xs[k], ys[k] = memoProblem(int64(10 + k))
	}
	var got [goroutines][keys]*PlanModel
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for n := 0; n < keys; n++ {
				k := (g + n) % keys // goroutines meet on different keys first
				pm, err := TrainPlanModel(xs[k], ys[k], cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][k] = pm
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := memo.entries(); n != keys {
		t.Fatalf("%d entries (trainings) for %d distinct requests", n, keys)
	}
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d holds different models than goroutine 0", g)
		}
	}
}

// TestSharedPlanModelConcurrentReads: the model a memo hands to several
// requesters is read by all of them at once. Predict and InRange must be
// pure reads; the race detector is the judge, the serial answers the
// reference.
func TestSharedPlanModelConcurrentReads(t *testing.T) {
	x, y := memoProblem(20)
	cfg := subplanModelConfig(new(TrainMemo))
	pm, err := TrainPlanModel(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, x.Rows)
	for i := range want {
		want[i] = pm.Predict(x.Row(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared, err := TrainPlanModel(x, y, cfg)
			if err != nil || shared != pm {
				t.Errorf("not handed the shared model: %v", err)
				return
			}
			for round := 0; round < 50; round++ {
				for i := range want {
					if got := shared.Predict(x.Row(i)); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("row %d: %v under concurrency, %v alone", i, got, want[i])
						return
					}
					if !shared.InRange(x.Row(i), ApplicabilityMargin) {
						t.Errorf("training row %d out of range", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTrainMemoKeyCoversConfig: every field of PlanModelConfig that
// reaches training separates requests, and the memo handle does not. The
// fields are found by reflection, so a field added later fails here until
// memoConfig knows it.
func TestTrainMemoKeyCoversConfig(t *testing.T) {
	base := DefaultPlanModelConfig()
	baseKey := memoConfigOf(base, planMinRows)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		changed := base
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch {
		case name == "Memo":
			f.Set(reflect.ValueOf(new(TrainMemo)))
			if memoConfigOf(changed, planMinRows) != baseKey {
				t.Fatal("the memo handle is part of the key")
			}
			continue
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.CanInt():
			f.SetInt(f.Int() + 1)
		case f.CanFloat():
			f.SetFloat(f.Float()*2 + 1)
		default:
			t.Fatalf("PlanModelConfig.%s: a kind this test cannot perturb; extend it and memoConfig", name)
		}
		if memoConfigOf(changed, planMinRows) == baseKey {
			t.Errorf("PlanModelConfig.%s does not separate memo keys", name)
		}
	}
	if memoConfigOf(base, opMinRows) == baseKey {
		t.Error("operator models and plan models share keys")
	}

	// End to end: through one memo, a changed field trains its own model
	// and the two row floors never answer each other's requests.
	x, y := memoProblem(30)
	memo := new(TrainMemo)
	base.Memo = memo
	first, err := TrainPlanModel(x, y, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, change := range []func(*PlanModelConfig){
		func(c *PlanModelConfig) { c.Kind = ModelLinear },
		func(c *PlanModelConfig) { c.LogTarget = true },
		func(c *PlanModelConfig) { c.C = 3 },
		func(c *PlanModelConfig) { c.Nu = 0.3 },
		func(c *PlanModelConfig) { c.Folds = 2 },
		func(c *PlanModelConfig) { c.Seed = 9 },
		func(c *PlanModelConfig) { c.FeatureSelection = false },
	} {
		cfg := base
		change(&cfg)
		pm, err := TrainPlanModel(x, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pm == first {
			t.Fatalf("config %+v was handed the default config's model", cfg)
		}
	}
	before := memo.entries()
	if om, err := trainModel(x, y, base, opMinRows); err != nil || om == nil || om == first {
		t.Fatalf("operator model through the memo: %v", err)
	}
	if memo.entries() != before+1 {
		t.Fatal("an operator-model request matched a plan-model entry")
	}
	again, err := TrainPlanModel(x, y, base)
	if err != nil || again != first {
		t.Fatalf("the default request no longer finds its model: %v", err)
	}
}
