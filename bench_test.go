package qperf_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (regenerating the corresponding result and reporting its
// headline metric via b.ReportMetric), plus ablation benchmarks for the
// design choices DESIGN.md calls out and micro-benchmarks of the
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run at the quick scale so the whole suite
// completes in minutes; cmd/qppexp regenerates the full-scale numbers.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"qpp/internal/exec"
	"qpp/internal/experiments"
	"qpp/internal/mlearn"
	"qpp/internal/opt"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
	"qpp/internal/workload"
)

var (
	benchEnvMu   sync.Mutex
	benchEnvDone bool
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// benchmarkEnv builds the shared workload environment once per test
// binary. A failed build is cached (rebuilding would fail the same way
// and costs minutes), but the error carries the build configuration and
// every caller fails with that context instead of a bare message; the
// built/failed state is only recorded after BuildEnv returns, so a
// skipped caller never marks the environment as attempted.
func benchmarkEnv(b *testing.B) *experiments.Env {
	b.Helper()
	skipIfShort(b)
	cfg := experiments.Config{
		LargeSF:     0.008,
		SmallSF:     0.002,
		PerTemplate: 10,
		Seed:        42,
		TimeLimit:   300,
		Folds:       4,
	}
	benchEnvMu.Lock()
	if !benchEnvDone {
		benchEnv, benchEnvErr = experiments.BuildEnv(cfg)
		if benchEnvErr != nil {
			benchEnvErr = fmt.Errorf("BuildEnv(largeSF=%v smallSF=%v perTemplate=%d seed=%d): %w",
				cfg.LargeSF, cfg.SmallSF, cfg.PerTemplate, cfg.Seed, benchEnvErr)
		}
		benchEnvDone = true
	}
	env, err := benchEnv, benchEnvErr
	benchEnvMu.Unlock()
	if err != nil {
		b.Fatalf("shared benchmark env unavailable: %v", err)
	}
	return env
}

// skipIfShort keeps `go test -short -bench .` (and the -race CI pass)
// from paying for full workload builds; the figure numbers they produce
// are regeneration targets, not correctness checks.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("workload-scale benchmark skipped in short mode")
	}
}

// BenchmarkBuildEnvParallel measures the worker-pool execution layer:
// each iteration builds the same environment serially and with 4
// workers and reports the wall-clock speedup. The two builds are
// asserted bit-identical, so the metric prices determinism-preserving
// parallelism, not a relaxed variant. On a single-core host (GOMAXPROCS
// reported alongside) the speedup necessarily stays near 1x — the
// workload is CPU-bound virtual-time simulation with no real I/O to
// overlap — and reaches its intended >=1.5x only with 2+ cores.
func BenchmarkBuildEnvParallel(b *testing.B) {
	skipIfShort(b)
	cfg := experiments.Config{
		LargeSF:     0.004,
		SmallSF:     0.002,
		PerTemplate: 6,
		Seed:        42,
		TimeLimit:   300,
		Folds:       4,
	}
	serialCfg, parCfg := cfg, cfg
	serialCfg.Parallelism = 1
	parCfg.Parallelism = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := experiments.BuildEnv(serialCfg)
		if err != nil {
			b.Fatal(err)
		}
		serialSec := time.Since(t0).Seconds()
		t1 := time.Now()
		par, err := experiments.BuildEnv(parCfg)
		if err != nil {
			b.Fatal(err)
		}
		parSec := time.Since(t1).Seconds()
		if len(par.Large.Records) != len(serial.Large.Records) {
			b.Fatalf("parallel build diverged: %d records vs %d",
				len(par.Large.Records), len(serial.Large.Records))
		}
		for j, r := range par.Large.Records {
			if r.Time != serial.Large.Records[j].Time {
				b.Fatalf("record %d latency %v != serial %v", j, r.Time, serial.Large.Records[j].Time)
			}
		}
		b.ReportMetric(serialSec/parSec, "speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	}
}

// BenchmarkFig5OptimizerCostBaseline regenerates Figure 5 (Section 5.2).
func BenchmarkFig5OptimizerCostBaseline(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanRel, "meanRelErr")
		b.ReportMetric(res.MaxRel, "maxRelErr")
	}
}

// BenchmarkFig6PlanLevelLarge regenerates Figure 6(a) plan-level rows.
func BenchmarkFig6PlanLevelLarge(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PlanLargeMean, "planLargeMRE")
		b.ReportMetric(res.PlanSmallMean, "planSmallMRE")
	}
}

// BenchmarkFig6OperatorLevelLarge regenerates Figure 6(d)/(f) rows.
func BenchmarkFig6OperatorLevelLarge(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OpLargeMean, "opLargeMRE")
		b.ReportMetric(res.OpSmallMean, "opSmallMRE")
	}
}

// BenchmarkFig7FeatureSource regenerates Figure 7 (actual vs estimates).
func BenchmarkFig7FeatureSource(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Combos {
			if c.Train == "estimate" && c.Test == "estimate" {
				b.ReportMetric(c.PlanErr, "estEstPlanMRE")
			}
		}
	}
}

// BenchmarkFig8HybridStrategies regenerates Figure 8 (plan ordering
// strategies).
func BenchmarkFig8HybridStrategies(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(env)
		if err != nil {
			b.Fatal(err)
		}
		curve := res.Curves["error-based"]
		b.ReportMetric(curve[len(curve)-1].Error, "errorBasedFinalMRE")
	}
}

// BenchmarkFig9DynamicWorkload regenerates Figure 9 (leave one template out).
func BenchmarkFig9DynamicWorkload(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PlanMean, "planLevelMRE")
		b.ReportMetric(res.OnlineMean, "onlineMRE")
	}
}

// BenchmarkFig4SubplanAnalysis regenerates Figure 4 (common sub-plans).
func BenchmarkFig4SubplanAnalysis(b *testing.B) {
	env := benchmarkEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.SizeCDF)), "commonSizes")
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md §4) ---

func ablationRecords(b *testing.B) []*qpp.QueryRecord {
	env := benchmarkEnv(b)
	return workload.FilterTemplates(env.Large.Records, tpch.OperatorLevelTemplates)
}

func evalPredictor(recs []*qpp.QueryRecord, f func(*qpp.QueryRecord) (float64, error)) float64 {
	var act, pred []float64
	for _, r := range recs {
		p, err := f(r)
		if err != nil {
			continue
		}
		act = append(act, r.Time)
		pred = append(pred, p)
	}
	return mlearn.MeanRelativeError(act, pred)
}

// BenchmarkAblationPlanModelSVRvsLinear compares the paper's SVR choice
// for plan-level models against linear regression.
func BenchmarkAblationPlanModelSVRvsLinear(b *testing.B) {
	env := benchmarkEnv(b)
	train, test := interleaveSplit(env.Large.Records)
	for i := 0; i < b.N; i++ {
		for _, kind := range []qpp.ModelKind{qpp.ModelSVR, qpp.ModelLinear} {
			cfg := qpp.DefaultPlanModelConfig()
			cfg.Kind = kind
			m, err := qpp.TrainPlanLevel(train, qpp.FeatEstimates, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mre := evalPredictor(test, func(r *qpp.QueryRecord) (float64, error) {
				return m.Predict(r), nil
			})
			if kind == qpp.ModelSVR {
				b.ReportMetric(mre, "svrMRE")
			} else {
				b.ReportMetric(mre, "linearMRE")
			}
		}
	}
}

// BenchmarkAblationFeatureSelection compares forward feature selection
// against using the full Table-1 feature set (the paper observed the full
// set often performs worse).
func BenchmarkAblationFeatureSelection(b *testing.B) {
	env := benchmarkEnv(b)
	train, test := interleaveSplit(env.Large.Records)
	for i := 0; i < b.N; i++ {
		for _, fs := range []bool{true, false} {
			cfg := qpp.DefaultPlanModelConfig()
			cfg.FeatureSelection = fs
			m, err := qpp.TrainPlanLevel(train, qpp.FeatEstimates, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mre := evalPredictor(test, func(r *qpp.QueryRecord) (float64, error) {
				return m.Predict(r), nil
			})
			if fs {
				b.ReportMetric(mre, "withSelectionMRE")
			} else {
				b.ReportMetric(mre, "allFeaturesMRE")
			}
		}
	}
}

// BenchmarkAblationChildTimeFeatures measures operator-level prediction
// with composed child times versus oracle actual child times, quantifying
// the error-propagation cost the paper discusses in Section 3.3.
func BenchmarkAblationChildTimeFeatures(b *testing.B) {
	recs := ablationRecords(b)
	ops, err := qpp.TrainOperatorModels(recs, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := evalPredictor(recs, func(r *qpp.QueryRecord) (float64, error) {
			return ops.Predict(r, qpp.ChildTimesPredicted)
		})
		oracle := evalPredictor(recs, func(r *qpp.QueryRecord) (float64, error) {
			return ops.Predict(r, qpp.ChildTimesActual)
		})
		b.ReportMetric(pred, "composedMRE")
		b.ReportMetric(oracle, "oracleChildMRE")
	}
}

// BenchmarkAblationPipelineOverlap quantifies how much of the cost-model
// error comes from CPU/IO overlap in the device model: it runs one query
// with and without the overlap term.
func BenchmarkAblationPipelineOverlap(b *testing.B) {
	skipIfShort(b)
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.GenQuery(1, newRand(7))
	if err != nil {
		b.Fatal(err)
	}
	node, err := opt.PlanSQL(db, q.SQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := vclock.DefaultProfile()
		with.NoiseSigma = 0
		without := with
		without.OverlapFrac = 0
		r1, err := exec.Run(db, node, vclock.NewClock(with, 1), exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := exec.Run(db, node, vclock.NewClock(without, 1), exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r1.Elapsed, "withOverlapVsec")
		b.ReportMetric(r2.Elapsed, "noOverlapVsec")
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkPlanningThroughput measures optimizer latency across templates.
func BenchmarkPlanningThroughput(b *testing.B) {
	skipIfShort(b)
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.002, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 0, len(tpch.Templates))
	rng := newRand(5)
	for _, t := range tpch.Templates {
		q, err := tpch.GenQuery(t, rng)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q.SQL)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.PlanSQL(db, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutionQ6 measures executor throughput on template 6.
func BenchmarkExecutionQ6(b *testing.B) {
	skipIfShort(b)
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.GenQuery(6, newRand(6))
	if err != nil {
		b.Fatal(err)
	}
	node, err := opt.PlanSQL(db, q.SQL)
	if err != nil {
		b.Fatal(err)
	}
	prof := vclock.DefaultProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(db, node, vclock.NewClock(prof, int64(i)), exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkExecQuery executes one planned instance of a template end to
// end under the given options, reporting allocations. The plan is
// built once outside the timer; each iteration re-runs it on a fresh
// clock exactly as the workload layer does.
func benchmarkExecQuery(b *testing.B, tmpl int, opts exec.Options) {
	skipIfShort(b)
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.GenQuery(tmpl, newRand(int64(tmpl)))
	if err != nil {
		b.Fatal(err)
	}
	node, err := opt.PlanSQL(db, q.SQL)
	if err != nil {
		b.Fatal(err)
	}
	prof := vclock.DefaultProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(db, node, vclock.NewClock(prof, int64(i)), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExprCompiled runs the Q1/Q6/Q18 hot paths through the
// expression compiler (the default execution mode).
func BenchmarkExprCompiled(b *testing.B) {
	for _, tmpl := range []int{1, 6, 18} {
		b.Run(fmt.Sprintf("q%d", tmpl), func(b *testing.B) { benchmarkExecQuery(b, tmpl, exec.Options{}) })
	}
}

// BenchmarkExprInterpreted is the same workload with Options.Interpret:
// the tree-walking Scalar.Eval path the compiler replaced. The ns/op
// ratio to BenchmarkExprCompiled is the compiler's speedup; no test
// enforces it (the allocation half is asserted by
// exec.TestCompiledAllocatesNoMoreThanInterpreted).
func BenchmarkExprInterpreted(b *testing.B) {
	for _, tmpl := range []int{1, 6, 18} {
		b.Run(fmt.Sprintf("q%d", tmpl), func(b *testing.B) { benchmarkExecQuery(b, tmpl, exec.Options{Interpret: true}) })
	}
}

// BenchmarkSVRTraining measures nu-SVR fit time at workload scale.
func BenchmarkSVRTraining(b *testing.B) {
	skipIfShort(b)
	rng := newRand(8)
	n := 400
	x := mlearn.NewMatrix(n, 10)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 10; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = x.At(i, 0)*2 + x.At(i, 1)*x.At(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mlearn.NewNuSVR(10, 0.5)
		if err := s.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFeatureExtraction measures Table-1 feature extraction.
func BenchmarkPlanFeatureExtraction(b *testing.B) {
	env := benchmarkEnv(b)
	recs := env.Large.Records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qpp.PlanFeatures(recs[i%len(recs)].Root, qpp.FeatEstimates)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// interleaveSplit produces a template-balanced train/test split (records
// are generated grouped by template, so a prefix split would hold out
// whole templates and measure the dynamic scenario instead).
func interleaveSplit(recs []*qpp.QueryRecord) (train, test []*qpp.QueryRecord) {
	for i, r := range recs {
		if i%4 == 3 {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	return train, test
}
