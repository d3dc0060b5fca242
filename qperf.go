// Package qperf is the public API of this reproduction of "Learning-based
// Query Performance Modeling and Prediction" (Akdere & Çetintemel, ICDE
// 2012): learned query performance prediction (QPP) over an embedded,
// instrumented analytical database engine and the TPC-H benchmark.
//
// The package wires together the internal substrates — a SQL frontend, a
// cost-based optimizer, a virtual-clock executor, a TPC-H generator, and a
// small ML library — behind three concepts:
//
//   - Engine: an in-memory TPC-H database that plans, explains, and
//     executes SQL with per-operator instrumentation.
//   - Workload: an executed set of queries (instrumented plans + observed
//     latencies), the training/test currency of all predictors.
//   - Predictor: a latency model. Constructors cover the paper's five
//     methods: the optimizer-cost baseline, plan-level, operator-level,
//     hybrid (Algorithm 1), and online prediction.
//
// See examples/quickstart for a complete end-to-end program.
package qperf

import (
	"fmt"

	"qpp/internal/exec"
	"qpp/internal/obs"
	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/qpp"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
	"qpp/internal/workload"
)

// Engine is an embedded TPC-H database with an instrumented executor.
type Engine struct {
	db *storage.Database
}

// EngineConfig configures NewEngine.
type EngineConfig struct {
	// ScaleFactor is the TPC-H scale factor (1.0 ≈ the spec's 1 GB).
	ScaleFactor float64
	// Seed drives deterministic data generation.
	Seed int64
}

// NewEngine generates and loads a TPC-H database.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Engine{db: db}, nil
}

// Plan compiles a SQL query to a costed physical plan.
func (e *Engine) Plan(query string) (*plan.Node, error) {
	return opt.PlanSQL(e.db, query)
}

// Explain returns the EXPLAIN rendering of a query's plan.
func (e *Engine) Explain(query string) (string, error) {
	node, err := e.Plan(query)
	if err != nil {
		return "", err
	}
	return plan.Explain(node), nil
}

// QueryResult is an executed query: its rows, the instrumented plan, and
// the observed virtual-clock latency in seconds.
type QueryResult struct {
	Rows    []plan.Row
	Plan    *plan.Node
	Elapsed float64
}

// Run plans and executes a query cold (fresh buffer cache), as the paper's
// training protocol does. seed perturbs the per-query device noise.
func (e *Engine) Run(query string, seed int64) (*QueryResult, error) {
	node, err := e.Plan(query)
	if err != nil {
		return nil, err
	}
	clock := vclock.NewClock(vclock.DefaultProfile(), seed)
	res, err := exec.Run(e.db, node, clock, exec.Options{})
	if err != nil {
		return nil, err
	}
	return &QueryResult{Rows: res.Rows, Plan: node, Elapsed: res.Elapsed}, nil
}

// RunTraced is Run with the obs layer attached: the returned trace holds
// one span per executed operator (vclock window, inclusive busy time,
// exclusive I/O / CPU / numeric attribution, cache and spill behaviour).
// Tracing never writes to the clock, so the QueryResult is bit-identical
// to an untraced Run with the same query and seed. Render the trace with
// its Tree method or export it via obs.WriteChrome.
func (e *Engine) RunTraced(query string, seed int64) (*QueryResult, *obs.Trace, error) {
	node, err := e.Plan(query)
	if err != nil {
		return nil, nil, err
	}
	clock := vclock.NewClock(vclock.DefaultProfile(), seed)
	tr := obs.NewTrace(clock)
	res, err := exec.Run(e.db, node, clock, exec.Options{Trace: tr})
	if err != nil {
		return nil, nil, err
	}
	return &QueryResult{Rows: res.Rows, Plan: node, Elapsed: res.Elapsed}, tr, nil
}

// Query is one executed, instrumented query usable for training or
// prediction.
type Query struct {
	rec *qpp.QueryRecord
}

// Template returns the TPC-H template number.
func (q *Query) Template() int { return q.rec.Template }

// Latency returns the observed execution latency in virtual seconds.
func (q *Query) Latency() float64 { return q.rec.Time }

// Workload is an executed query set.
type Workload struct {
	queries []*Query
}

// WorkloadConfig configures BuildWorkload.
type WorkloadConfig struct {
	ScaleFactor float64
	// Templates are the TPC-H templates to draw from (nil: all 18
	// supported templates).
	Templates []int
	// PerTemplate is how many instances of each template to run.
	PerTemplate int
	Seed        int64
	// TimeLimit caps each query's virtual execution time (0: none),
	// mirroring the paper's one-hour cutoff.
	TimeLimit float64
	// Parallelism is how many worker goroutines execute queries (<= 0:
	// GOMAXPROCS, 1: serial). The workload is bit-identical for every
	// value — per-query seeds derive from the query's position, never
	// from scheduling.
	Parallelism int
}

// BuildWorkload generates a TPC-H database, then runs a qgen-style
// workload against it, returning the executed records.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) {
	ds, err := workload.Build(workload.Config{
		ScaleFactor: cfg.ScaleFactor,
		Templates:   cfg.Templates,
		PerTemplate: cfg.PerTemplate,
		Seed:        cfg.Seed,
		TimeLimit:   cfg.TimeLimit,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return wrapRecords(ds.Records), nil
}

func wrapRecords(recs []*qpp.QueryRecord) *Workload {
	w := &Workload{queries: make([]*Query, len(recs))}
	for i, r := range recs {
		w.queries[i] = &Query{rec: r}
	}
	return w
}

// Queries returns the workload's queries.
func (w *Workload) Queries() []*Query { return append([]*Query(nil), w.queries...) }

// Len reports the number of queries.
func (w *Workload) Len() int { return len(w.queries) }

// SplitTemplate partitions into (other templates, the held-out template) —
// the paper's dynamic-workload protocol.
func (w *Workload) SplitTemplate(heldOut int) (train, test *Workload) {
	tr, te := workload.SplitLeaveTemplateOut(w.records(), heldOut)
	return wrapRecords(tr), wrapRecords(te)
}

func (w *Workload) records() []*qpp.QueryRecord {
	out := make([]*qpp.QueryRecord, len(w.queries))
	for i, q := range w.queries {
		out[i] = q.rec
	}
	return out
}

// Predictor estimates query latency from a planned (not executed) query.
type Predictor interface {
	// Name identifies the method.
	Name() string
	// Predict returns the estimated latency in seconds.
	Predict(q *Query) (float64, error)
}

// TrainCostBaseline fits the analytical-cost linear baseline (Section 5.2).
func TrainCostBaseline(train *Workload) (Predictor, error) {
	m, err := qpp.TrainCostBaseline(train.records())
	if err != nil {
		return nil, err
	}
	return predictor{"cost-model", func(q *Query) (float64, error) { return m.Predict(q.rec), nil }}, nil
}

// TrainPlanLevel fits the plan-level SVR predictor (Section 3.1).
func TrainPlanLevel(train *Workload) (Predictor, error) {
	m, err := qpp.TrainPlanLevel(train.records(), qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		return nil, err
	}
	return predictor{"plan-level", func(q *Query) (float64, error) { return m.Predict(q.rec), nil }}, nil
}

// TrainOperatorLevel fits the operator-level predictor (Section 3.2).
func TrainOperatorLevel(train *Workload) (Predictor, error) {
	m, err := qpp.TrainOperatorModels(train.records(), qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		return nil, err
	}
	return predictor{"operator-level", func(q *Query) (float64, error) {
		return m.Predict(q.rec, qpp.ChildTimesPredicted)
	}}, nil
}

// HybridStrategy selects Algorithm 1's plan ordering strategy.
type HybridStrategy = qpp.Strategy

// Hybrid strategies.
const (
	SizeBased  = qpp.SizeBased
	ErrorBased = qpp.ErrorBased
)

// TrainHybrid runs Algorithm 1 (Section 3.4) with the given strategy.
func TrainHybrid(train *Workload, strategy HybridStrategy) (Predictor, error) {
	m, _, err := qpp.TrainHybrid(train.records(), qpp.DefaultHybridConfig(strategy))
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("hybrid(%s)", strategy)
	return predictor{name, func(q *Query) (float64, error) { return m.Predict(q.rec) }}, nil
}

// NewOnlinePredictor builds the online method (Section 4): per query, it
// materializes plan-level models for the query's own sub-plans from the
// training data before predicting.
func NewOnlinePredictor(train *Workload) (Predictor, error) {
	recs := train.records()
	ops, err := qpp.TrainOperatorModels(recs, qpp.FeatEstimates, qpp.OpModelConfig())
	if err != nil {
		return nil, err
	}
	online := qpp.NewOnlinePredictor(recs, ops, nil)
	return predictor{"online", func(q *Query) (float64, error) { return online.Predict(q.rec) }}, nil
}

type predictor struct {
	name string
	fn   func(*Query) (float64, error)
}

func (p predictor) Name() string                      { return p.name }
func (p predictor) Predict(q *Query) (float64, error) { return p.fn(q) }

// MeanRelativeError evaluates a predictor over a workload with the paper's
// metric, against the observed value of the metric the predictor was
// trained on (latency unless it came from TrainMetricPredictor); queries
// the predictor cannot handle (ErrSubqueryPlan) are skipped and counted.
func MeanRelativeError(p Predictor, test *Workload) (mre float64, skipped int, err error) {
	predict := func(r *qpp.QueryRecord) (float64, error) { return p.Predict(&Query{rec: r}) }
	if mp, ok := p.(metricPredictor); ok {
		mre, err := qpp.MeanMetricRelativeError(test.records(), mp.metric, predict)
		return mre, 0, err
	}
	return qpp.MeanRelativeError(test.records(), predict)
}

// GenerateQuery produces one random instance of a TPC-H template.
func GenerateQuery(template int, seed int64) (string, error) {
	qs, err := tpch.GenWorkload([]int{template}, 1, seed)
	if err != nil {
		return "", err
	}
	return qs[0].SQL, nil
}

// ExplainPlan renders a plan tree (including actual times when it has been
// executed) in EXPLAIN format.
func ExplainPlan(n *plan.Node) string { return plan.Explain(n) }

// Metric selects a prediction target other than latency (Section 7 of the
// paper notes the techniques generalize to other performance metrics).
type Metric = qpp.Metric

// Prediction metrics.
const (
	MetricPagesRead = qpp.MetricPagesRead
	MetricRowsOut   = qpp.MetricRowsOut
)

// TrainMetricPredictor fits a plan-level model for an arbitrary metric
// (disk pages read or result cardinality).
func TrainMetricPredictor(train *Workload, metric Metric) (Predictor, error) {
	m, err := qpp.TrainPlanLevelMetric(train.records(), metric, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		return nil, err
	}
	return metricPredictor{predictor{"plan-level/" + metric.String(), func(q *Query) (float64, error) {
		return m.Predict(q.rec), nil
	}}, metric}, nil
}

// metricPredictor is a predictor of a metric other than latency.
type metricPredictor struct {
	predictor
	metric Metric
}
