// Package experiments regenerates every figure of the paper's evaluation
// (Section 5): the optimizer-cost baseline (Figure 5), static-workload
// plan-/operator-level prediction (Figure 6), the actual-vs-estimate
// feature study (Figure 7), the hybrid plan-ordering strategies
// (Figure 8), the dynamic leave-one-template-out workload (Figure 9),
// and the common sub-plan analysis (Figure 4). Each driver returns typed
// rows; cmd/qppexp renders them as tables and bench_test.go wraps them as
// benchmarks.
package experiments

import (
	"fmt"

	"qpp/internal/mlearn"
	"qpp/internal/obs"
	"qpp/internal/parallel"
	"qpp/internal/qpp"
	"qpp/internal/workload"
)

// Config scales the whole evaluation. The paper used TPC-H SF 10 and SF 1
// with ~55 queries per template and a one-hour cap; this reproduction
// defaults to SF 0.05 / 0.005 (the same 10:1 ratio) so everything runs on
// a laptop, with a virtual-time cap standing in for the hour.
type Config struct {
	LargeSF     float64
	SmallSF     float64
	PerTemplate int
	Seed        int64
	// TimeLimit is the per-query virtual-seconds cap (0 = none). The
	// paper's one-hour wall-clock cap maps to a virtual-time budget here.
	TimeLimit float64
	// Folds for cross-validated evaluations (paper: 5).
	Folds int
	// Parallelism is the worker count for query execution, fold training
	// and independent figure sub-experiments (<= 0: GOMAXPROCS, 1:
	// serial). Every result is bit-identical across worker counts.
	Parallelism int
	// Observe enables the obs layer: both datasets carry per-query traces
	// and a metrics registry, and every figure driver publishes its
	// predicted-vs-actual error distributions into its result's Metrics
	// registry. All registries are byte-identical across worker counts.
	Observe bool
}

// DefaultConfig returns the full-scale reproduction settings.
func DefaultConfig() Config {
	return Config{
		LargeSF:     0.05,
		SmallSF:     0.005,
		PerTemplate: 55,
		Seed:        42,
		TimeLimit:   120, // virtual seconds; scaled stand-in for the paper's 1 hour
		Folds:       5,
	}
}

// QuickConfig returns a reduced configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		LargeSF:     0.01,
		SmallSF:     0.002,
		PerTemplate: 10,
		Seed:        42,
		TimeLimit:   120,
		Folds:       4,
	}
}

// Env holds the executed workloads the figures are computed from.
type Env struct {
	Cfg   Config
	Large *workload.Dataset
	Small *workload.Dataset
}

// BuildEnv generates and executes both workloads. The two datasets are
// built one after the other (each is internally parallel across
// cfg.Parallelism workers, so running them back to back keeps the worker
// pool saturated without oversubscribing it).
func BuildEnv(cfg Config) (*Env, error) {
	large, err := workload.Build(workload.Config{
		ScaleFactor: cfg.LargeSF,
		PerTemplate: cfg.PerTemplate,
		Seed:        cfg.Seed,
		TimeLimit:   cfg.TimeLimit,
		Parallelism: cfg.Parallelism,
		Observe:     cfg.Observe,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: large dataset: %w", err)
	}
	small, err := workload.Build(workload.Config{
		ScaleFactor: cfg.SmallSF,
		PerTemplate: cfg.PerTemplate,
		Seed:        cfg.Seed + 1000,
		TimeLimit:   cfg.TimeLimit,
		Parallelism: cfg.Parallelism,
		Observe:     cfg.Observe,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: small dataset: %w", err)
	}
	return &Env{Cfg: cfg, Large: large, Small: small}, nil
}

// TemplateError is one per-template error bar.
type TemplateError struct {
	Template int
	Error    float64
	N        int
}

// perTemplateErrors groups per-record (actual, predicted) pairs by template.
func perTemplateErrors(recs []*qpp.QueryRecord, pred []float64) []TemplateError {
	type acc struct {
		a, p []float64
	}
	byT := map[int]*acc{}
	for i, r := range recs {
		a := byT[r.Template]
		if a == nil {
			a = &acc{}
			byT[r.Template] = a
		}
		a.a = append(a.a, r.Time)
		a.p = append(a.p, pred[i])
	}
	var out []TemplateError
	for _, t := range workload.TemplatesPresent(recs) {
		a := byT[t]
		out = append(out, TemplateError{
			Template: t,
			Error:    mlearn.MeanRelativeError(a.a, a.p),
			N:        len(a.a),
		})
	}
	return out
}

// meanError averages per-record relative errors over all records.
func meanError(recs []*qpp.QueryRecord, pred []float64) float64 {
	act := make([]float64, len(recs))
	for i, r := range recs {
		act[i] = r.Time
	}
	return mlearn.MeanRelativeError(act, pred)
}

// stratifiedFolds builds template-stratified CV folds over records.
func stratifiedFolds(recs []*qpp.QueryRecord, k int, seed int64) []mlearn.Fold {
	return mlearn.StratifiedKFold(workload.TemplateLabels(recs), k, seed)
}

// predictFn is how a trained method answers one record.
type predictFn = func(*qpp.QueryRecord) (float64, error)

// infallible adapts a method whose Predict cannot fail.
func infallible(predict func(*qpp.QueryRecord) float64) predictFn {
	return func(r *qpp.QueryRecord) (float64, error) { return predict(r), nil }
}

// crossVal returns out-of-fold predictions for recs over
// template-stratified folds: fit trains on a fold's training records and
// the method it returns predicts that fold's test records. Folds train
// concurrently; each writes only its own test slots.
func (e *Env) crossVal(recs []*qpp.QueryRecord, fit func(train []*qpp.QueryRecord) (predictFn, error)) ([]float64, error) {
	folds := stratifiedFolds(recs, e.Cfg.Folds, e.Cfg.Seed)
	pred := make([]float64, len(recs))
	err := e.forEachPar(len(folds), func(fi int) error {
		predict, err := fit(subset(recs, folds[fi].Train))
		if err != nil {
			return err
		}
		for _, i := range folds[fi].Test {
			if pred[i], err = predict(recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return pred, err
}

// forEachPar fans n independent sub-experiments (cross-validation folds,
// held-out templates, strategies) across the configured worker pool.
// Callers write results only to index-addressed slots, which keeps every
// figure row bit-identical across worker counts.
func (e *Env) forEachPar(n int, fn func(i int) error) error {
	return parallel.ForEach(n, e.Cfg.Parallelism, fn)
}

// planCfg and opCfg are the paper's plan- and operator-level model
// configurations, training through memo. Every figure driver makes one
// qpp.TrainMemo per call and lets go of it on return: a driver's folds,
// feature combinations, strategies and held-out templates keep asking for
// models an earlier step of the same call already trained, but a memo
// kept on the Env would make a second call cost nothing like the first.
func planCfg(memo *qpp.TrainMemo) qpp.PlanModelConfig {
	cfg := qpp.DefaultPlanModelConfig()
	cfg.Memo = memo
	return cfg
}

func opCfg(memo *qpp.TrainMemo) qpp.PlanModelConfig {
	cfg := qpp.OpModelConfig()
	cfg.Memo = memo
	return cfg
}

// hybridCfg is the paper's Algorithm-1 configuration for a strategy, all
// its models training through memo.
func hybridCfg(s qpp.Strategy, memo *qpp.TrainMemo) qpp.HybridConfig {
	cfg := qpp.DefaultHybridConfig(s)
	cfg.PlanCfg.Memo = memo
	cfg.OpCfg.Memo = memo
	return cfg
}

// figRegistry returns a fresh registry for a figure driver when the obs
// layer is on, nil otherwise. Drivers record into it only after their
// parallel slots are assembled, in record order, so the dump is
// byte-identical across worker counts.
func (e *Env) figRegistry() *obs.Registry {
	if !e.Cfg.Observe {
		return nil
	}
	return obs.NewRegistry()
}

// recordErrDist publishes a per-record relative-error distribution into a
// figure's registry: one histogram for the whole series plus one per
// template ("relerr.<series>" and "relerr.<series>.t<N>"). Records are
// visited in slice order — the fixed merge order. No-op when reg is nil.
func recordErrDist(reg *obs.Registry, series string, recs []*qpp.QueryRecord, pred []float64) {
	if reg == nil {
		return
	}
	for i, r := range recs {
		e := mlearn.RelativeError(r.Time, pred[i])
		reg.Observe("relerr."+series, e)
		reg.Observe(fmt.Sprintf("relerr.%s.t%d", series, r.Template), e)
	}
}

func subset(recs []*qpp.QueryRecord, idx []int) []*qpp.QueryRecord {
	out := make([]*qpp.QueryRecord, len(idx))
	for i, j := range idx {
		out[i] = recs[j]
	}
	return out
}
