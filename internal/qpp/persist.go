package qpp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// Model materialization (Section 1 of the paper: "pre-build and
// materialize such models offline, so that they are readily available for
// future predictions"). The served model set — plan-level, hybrid with its
// operator-level models, and the cost baseline — is one JSON document
// that loads back without retraining.
//
// The document carries one explicit format version. A serving process
// that hot-loads snapshot files must fail loudly on a stale or future
// snapshot rather than silently mispredicting from reinterpreted fields,
// so LoadModels rejects any version other than FormatVersion.

// FormatVersion is the on-disk model snapshot format revision, and
// persistedShape the JSON fields of every struct a document of that
// revision holds, as TestPersistedShape reads them by reflection. A change
// to any of those structs fails that test until the list is edited; an
// edited list is a new format, so FormatVersion goes up with it (the
// list's first line names the version it describes).
const FormatVersion = 3

const persistedShape = `version 3
qpp.modelsState{format int, mode int, plan *qpp.modelState, start map[string]*qpp.modelState, run map[string]*qpp.modelState, fallback_start float64, fallback_run float64, plans map[string]qpp.subplanModelsState, slope float64, intercept float64}
qpp.modelState{cols []int, model *mlearn.ModelState, log_target bool, lo []float64, hi []float64, train_error float64}
mlearn.ModelState{linreg *mlearn.linregState, rel_linreg *mlearn.relLinregState, svr *mlearn.svrState, scaled *mlearn.scaledState, constant *mlearn.constState}
mlearn.linregState{coef []float64, intercept float64, lambda float64, fit_intercept bool}
mlearn.relLinregState{lambda float64, floor_frac float64, coef []float64, d int}
mlearn.svrState{c float64, nu float64, gamma float64, coef []float64, b float64, sv_rows int, sv_cols int, sv_data []float64}
mlearn.scaledState{inner *mlearn.ModelState, scale_target bool, target_scaled bool, y_mean float64, y_std float64, x_means []float64, x_stds []float64}
mlearn.constState{value float64}
qpp.subplanModelsState{start *qpp.modelState, run *qpp.modelState}`

// modelsState is the whole persisted model set: the plan-level model,
// the hybrid's operator-level models (start and run per operator type,
// and the constants for unseen types) and sub-plan models keyed by
// canonical signature, and the cost baseline's line. Every model shares
// one feature mode.
type modelsState struct {
	Format        int                           `json:"format"`
	Mode          FeatureMode                   `json:"mode"`
	Plan          *modelState                   `json:"plan"`
	Start         map[string]*modelState        `json:"start"`
	Run           map[string]*modelState        `json:"run"`
	FallbackStart float64                       `json:"fallback_start"`
	FallbackRun   float64                       `json:"fallback_run"`
	Plans         map[string]subplanModelsState `json:"plans"`
	Slope         float64                       `json:"slope"`
	Intercept     float64                       `json:"intercept"`
}

// modelState is the one persisted shape of a fitted model, whatever its
// granularity.
type modelState struct {
	Cols       []int              `json:"cols"`
	Model      *mlearn.ModelState `json:"model"`
	LogTarget  bool               `json:"log_target"`
	Lo         []float64          `json:"lo"`
	Hi         []float64          `json:"hi"`
	TrainError float64            `json:"train_error"`
}

type subplanModelsState struct {
	Start *modelState `json:"start"`
	Run   *modelState `json:"run"`
}

// unmarshalModel restores the model stored under the name what, which is
// to be fed feature rows of the given width; its regressor sees the
// len(cols) selected ones. Snapshot files are outside input: a state that
// Predict or InRange would index a row out of range with is refused here,
// naming the field, not met inside a request.
func unmarshalModel(what string, st *modelState, width int) (*PlanModel, error) {
	switch {
	case st == nil:
		return nil, fmt.Errorf("qpp: snapshot has no model for %s", what)
	case len(st.Lo) != width:
		return nil, fmt.Errorf("qpp: snapshot %s: lo has %d entries, the feature vector %d", what, len(st.Lo), width)
	case len(st.Hi) != width:
		return nil, fmt.Errorf("qpp: snapshot %s: hi has %d entries, the feature vector %d", what, len(st.Hi), width)
	}
	for _, c := range st.Cols {
		if c < 0 || c >= width {
			return nil, fmt.Errorf("qpp: snapshot %s: cols names column %d of a %d-feature vector", what, c, width)
		}
	}
	m, err := mlearn.UnmarshalModel(st.Model, len(st.Cols))
	if err != nil {
		return nil, fmt.Errorf("qpp: snapshot %s: %w", what, err)
	}
	return &PlanModel{
		cols: st.Cols, model: m, logTarget: st.LogTarget,
		lo: st.Lo, hi: st.Hi, TrainError: st.TrainError,
	}, nil
}

// SaveModels materializes the served model set as one JSON document. All
// three predictors are required, and they must share one feature mode:
// the document records one.
func SaveModels(w io.Writer, pl *PlanLevelPredictor, hy *HybridPredictor, base *CostModelBaseline) error {
	if pl == nil || hy == nil || hy.Ops == nil || base == nil {
		return errors.New("qpp: save models: the plan-level, hybrid, operator-level and cost-baseline models are all required")
	}
	if pl.Mode != hy.Mode || hy.Ops.Mode != hy.Mode {
		return fmt.Errorf("qpp: save models: feature modes differ (plan-level %d, hybrid %d, operator-level %d)", pl.Mode, hy.Mode, hy.Ops.Mode)
	}
	// save captures one model; the first failure is err.
	var err error
	save := func(pm *PlanModel) *modelState {
		m, merr := mlearn.MarshalModel(pm.model)
		if err == nil {
			err = merr
		}
		return &modelState{Cols: pm.cols, Model: m, LogTarget: pm.logTarget, Lo: pm.lo, Hi: pm.hi, TrainError: pm.TrainError}
	}
	st := modelsState{
		Format: FormatVersion, Mode: pl.Mode, Plan: save(pl.Model),
		Start: map[string]*modelState{}, Run: map[string]*modelState{},
		FallbackStart: hy.Ops.fallbackStart.Value, FallbackRun: hy.Ops.fallbackRun.Value,
		Plans: map[string]subplanModelsState{},
	}
	for op, m := range hy.Ops.start {
		st.Start[op.String()] = save(m)
	}
	for op, m := range hy.Ops.run {
		st.Run[op.String()] = save(m)
	}
	for sig, pm := range hy.Plans {
		st.Plans[sig] = subplanModelsState{Start: save(pm.Start), Run: save(pm.Run)}
	}
	st.Slope, st.Intercept = base.Coefficients()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(st)
}

// LoadModels restores a model set written by SaveModels. A document of
// another format version, or holding any model that does not fit the
// feature vector it will be fed, is refused whole.
func LoadModels(r io.Reader) (*PlanLevelPredictor, *HybridPredictor, *CostModelBaseline, error) {
	var st modelsState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, nil, nil, fmt.Errorf("qpp: load models: %w", err)
	}
	// A zero version also catches a document without the field.
	if st.Format != FormatVersion {
		return nil, nil, nil, fmt.Errorf("qpp: snapshot has format version %d, this build reads version %d; retrain and re-save the model", st.Format, FormatVersion)
	}
	// load restores one model; after the first failure, err, it restores
	// none.
	var err error
	load := func(what string, s *modelState, width int) (m *PlanModel) {
		if err == nil {
			m, err = unmarshalModel(what, s, width)
		}
		return m
	}
	pl := &PlanLevelPredictor{Model: load("plan-level", st.Plan, NumPlanFeatures()), Mode: st.Mode}
	ops := &OperatorLevelPredictor{
		start: map[plan.OpType]*PlanModel{}, run: map[plan.OpType]*PlanModel{}, Mode: st.Mode,
		fallbackStart: &mlearn.ConstantModel{Value: st.FallbackStart},
		fallbackRun:   &mlearn.ConstantModel{Value: st.FallbackRun},
	}
	for _, side := range []struct {
		name   string
		states map[string]*modelState
		models map[plan.OpType]*PlanModel
	}{{"start", st.Start, ops.start}, {"run", st.Run, ops.run}} {
		for name, s := range side.states {
			m := load(name+" "+side.name, s, NumOpFeatures())
			// A model for an operator this engine does not plan could
			// never be consulted: it is checked like the others, then
			// dropped.
			if op, ok := plan.ParseOpType(name); ok {
				side.models[op] = m
			}
		}
	}
	hy := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: st.Mode}
	for sig, s := range st.Plans {
		hy.Plans[sig] = &SubplanModels{
			Start: load("sub-plan "+sig+" start", s.Start, NumPlanFeatures()),
			Run:   load("sub-plan "+sig+" run", s.Run, NumPlanFeatures()),
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	base := &mlearn.LinearRegression{Coef: []float64{st.Slope}, Intercept: st.Intercept, FitIntercept: true}
	return pl, hy, &CostModelBaseline{model: base}, nil
}
