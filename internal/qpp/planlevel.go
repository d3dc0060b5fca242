package qpp

import (
	"fmt"
	"math"

	"qpp/internal/mlearn"
)

// ridgePenalty is the ridge penalty of ModelLinear.
const ridgePenalty = 1e-3

// ModelKind selects the regression model class.
type ModelKind int

const (
	// ModelSVR is libsvm-style nu-SVR with an RBF kernel — the paper's
	// choice for plan-level models.
	ModelSVR ModelKind = iota
	// ModelLinear is ridge linear regression — the paper's choice for
	// operator-level models.
	ModelLinear
)

// PlanModelConfig tunes plan-level model training.
type PlanModelConfig struct {
	Kind ModelKind
	// FeatureSelection enables the paper's correlation-guided forward
	// feature selection (on by default via DefaultPlanModelConfig).
	FeatureSelection bool
	// Folds for feature-selection scoring.
	Folds int
	// Seed drives fold shuffling.
	Seed int64
	// SVR hyperparameters.
	C, Nu float64
	// LogTarget fits log(latency) instead of latency; used for sub-plan
	// models whose training occurrences span orders of magnitude across
	// templates, where absolute-loss fitting would sacrifice the small
	// occurrences' relative accuracy.
	LogTarget bool
	// Memo, when non-nil, makes TrainPlanModel train each distinct
	// (features, targets, configuration) once per memo and hand the same
	// model to every later request (see TrainMemo); nil trains every
	// time. It does not change any trained model.
	Memo *TrainMemo
}

// DefaultPlanModelConfig returns the paper's configuration: nu-SVR with
// forward feature selection.
func DefaultPlanModelConfig() PlanModelConfig {
	return PlanModelConfig{
		Kind:             ModelSVR,
		FeatureSelection: true,
		Folds:            3,
		Seed:             1,
		C:                10,
		Nu:               0.5,
	}
}

func (cfg PlanModelConfig) factory() mlearn.ModelFactory {
	switch cfg.Kind {
	case ModelLinear:
		return func() mlearn.Regressor {
			// Relative-error-weighted least squares: operator run-times
			// span orders of magnitude and the evaluation metric is mean
			// *relative* error.
			return mlearn.NewRelativeLinearRegression(ridgePenalty)
		}
	default:
		return func() mlearn.Regressor {
			return mlearn.NewScaledModel(mlearn.NewNuSVR(cfg.C, cfg.Nu))
		}
	}
}

// logEps keeps log-space targets finite for near-zero latencies.
const logEps = 1e-9

// toLog maps a latency to the space LogTarget models are fit in; fromLog
// maps a prediction made there back.
func toLog(v float64) float64   { return math.Log(math.Max(v, 0) + logEps) }
func fromLog(v float64) float64 { return math.Exp(v) - logEps }

// targets returns y as the regressor is to see it.
func (cfg PlanModelConfig) targets(y []float64) []float64 {
	if !cfg.LogTarget {
		return y
	}
	yt := make([]float64, len(y))
	for i, v := range y {
		yt[i] = toLog(v)
	}
	return yt
}

// crossValPredict returns out-of-fold predictions of cfg's regressor over
// every column of x, in y's unit.
func (cfg PlanModelConfig) crossValPredict(x *mlearn.Matrix, y []float64, folds []mlearn.Fold) ([]float64, error) {
	pred, err := mlearn.CrossValPredict(cfg.factory(), x, cfg.targets(y), folds)
	if err != nil || !cfg.LogTarget {
		return pred, err
	}
	for i, v := range pred {
		pred[i] = fromLog(v)
	}
	return pred, nil
}

// PlanModel is the one fitted model of this package, at every
// granularity the paper has (Sections 3.1-3.2): a selected subset of a
// static feature vector (Table 1 for whole plans and sub-plans, Table 2
// for operators) plus a regressor from it to a time.
type PlanModel struct {
	cols      []int
	model     mlearn.Regressor
	logTarget bool
	// lo/hi bound every raw feature over the training data (not just the
	// selected ones); they back the applicability guard used on dynamic
	// workloads.
	lo, hi []float64
	// TrainError is the cross-validated mean relative error observed
	// during feature selection (an accuracy estimate, per Section 2).
	TrainError float64
}

// Feature selection needs rows to cross-validate on: below these counts a
// model keeps every column. Operator models pool far more rows per model
// than plan and sub-plan models and get the higher floor.
const (
	planMinRows = 6
	opMinRows   = 12
)

// TrainPlanModel fits a plan-level model on raw feature rows and targets.
// With cfg.Memo set the model may be one an earlier, identical request
// trained, shared with that requester: a PlanModel must not be written
// after training.
func TrainPlanModel(x *mlearn.Matrix, y []float64, cfg PlanModelConfig) (*PlanModel, error) {
	return trainModel(x, y, cfg, planMinRows)
}

// trainModel is TrainPlanModel with the feature-selection row floor of
// the caller's model granularity.
func trainModel(x *mlearn.Matrix, y []float64, cfg PlanModelConfig, minRows int) (*PlanModel, error) {
	if x.Rows != len(y) || x.Rows == 0 {
		return nil, fmt.Errorf("qpp: model: %d feature rows, %d targets", x.Rows, len(y))
	}
	if cfg.Memo != nil {
		return cfg.Memo.model(x, y, cfg, minRows)
	}
	return fitModel(x, y, cfg, minRows)
}

func fitModel(x *mlearn.Matrix, y []float64, cfg PlanModelConfig, minRows int) (*PlanModel, error) {
	yt := cfg.targets(y)
	factory := cfg.factory()
	pm := &PlanModel{logTarget: cfg.LogTarget}
	if cfg.FeatureSelection && x.Rows >= minRows {
		cols, cvErr, err := mlearn.ForwardFeatureSelection(factory, x, yt, mlearn.FeatureSelectionConfig{
			Folds: cfg.Folds, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		pm.cols = cols
		pm.TrainError = cvErr
	} else {
		pm.cols = make([]int, x.Cols)
		for i := range pm.cols {
			pm.cols[i] = i
		}
	}
	xt := mlearn.SelectColumns(x, pm.cols)
	pm.lo = append([]float64(nil), x.Row(0)...)
	pm.hi = append([]float64(nil), x.Row(0)...)
	for i := 1; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			pm.lo[j] = math.Min(pm.lo[j], v)
			pm.hi[j] = math.Max(pm.hi[j], v)
		}
	}
	m := factory()
	if err := m.Fit(xt, yt); err != nil {
		// Degenerate training sets (constant targets, single row) fall
		// back to a mean predictor rather than failing the pipeline.
		c := &mlearn.ConstantModel{}
		if err2 := c.Fit(xt, yt); err2 != nil {
			return nil, err
		}
		pm.model = c
		return pm, nil
	}
	pm.model = m
	return pm, nil
}

// Predict maps one raw feature row to a latency.
func (pm *PlanModel) Predict(features []float64) float64 {
	var buf [mlearn.StackRow]float64
	row := buf[:0]
	if len(pm.cols) > len(buf) {
		row = make([]float64, 0, len(pm.cols))
	}
	for _, c := range pm.cols {
		row = append(row, features[c])
	}
	out := mlearn.PredictRow(pm.model, row)
	if pm.logTarget {
		out = fromLog(out)
	}
	if out < 0 {
		out = 0
	}
	return out
}

// InRange reports whether the feature row lies within the model's training
// domain, widened by margin x (per-feature range). Plan-level models are
// interpolators; applying them far outside the feature region they were
// fit on (as happens with unseen templates in dynamic workloads) produces
// unbounded extrapolation error, so the hybrid and online predictors fall
// back to operator-level composition there.
func (pm *PlanModel) InRange(features []float64, margin float64) bool {
	if len(features) != len(pm.lo) {
		return false
	}
	for j, v := range features {
		span := pm.hi[j] - pm.lo[j]
		pad := margin * span
		if span == 0 {
			pad = margin * math.Max(math.Abs(pm.hi[j]), 1)
		}
		if v < pm.lo[j]-pad || v > pm.hi[j]+pad {
			return false
		}
	}
	return true
}

// PlanLevelPredictor is the paper's plan-level QPP method: a single model
// over whole-query Table-1 features, predicting latency or whichever other
// Metric it was trained on.
type PlanLevelPredictor struct {
	Model *PlanModel
	Mode  FeatureMode
}

// TrainPlanLevel builds a plan-level predictor from executed queries.
func TrainPlanLevel(recs []*QueryRecord, mode FeatureMode, cfg PlanModelConfig) (*PlanLevelPredictor, error) {
	return TrainPlanLevelMetric(recs, MetricLatency, mode, cfg)
}

// Predict estimates the latency (or trained metric) of a planned,
// unexecuted query.
func (p *PlanLevelPredictor) Predict(rec *QueryRecord) float64 {
	return p.Model.Predict(PlanFeatures(rec.Root, p.Mode))
}
