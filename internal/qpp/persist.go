package qpp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// Model materialization (Section 1 of the paper: "pre-build and
// materialize such models offline, so that they are readily available for
// future predictions"). Trained plan-level, operator-level and hybrid
// predictors serialize to JSON and load back without retraining.
//
// Every top-level state carries an explicit format version. A serving
// process that hot-loads snapshot files must fail loudly on a stale or
// future snapshot rather than silently mispredicting from reinterpreted
// fields, so the loaders reject any version other than FormatVersion.

// FormatVersion is the on-disk model snapshot format revision. Bump it
// whenever a state struct changes shape or meaning; loaders reject
// files written under any other revision.
const FormatVersion = 2

// checkFormat validates a decoded state's format version. A zero
// version also catches pre-versioning files, whose decoded struct lacks
// the field entirely.
func checkFormat(kind string, got int) error {
	if got != FormatVersion {
		return fmt.Errorf("qpp: %s snapshot has format version %d, this build reads version %d; retrain and re-save the model", kind, got, FormatVersion)
	}
	return nil
}

// modelState is the one persisted shape of a fitted model, whatever its
// granularity.
type modelState struct {
	Cols       []int           `json:"cols"`
	Model      json.RawMessage `json:"model"`
	LogTarget  bool            `json:"log_target"`
	Lo         []float64       `json:"lo"`
	Hi         []float64       `json:"hi"`
	TrainError float64         `json:"train_error"`
}

func (pm *PlanModel) marshal() (*modelState, error) {
	raw, err := mlearn.MarshalModel(pm.model)
	if err != nil {
		return nil, err
	}
	return &modelState{
		Cols: pm.cols, Model: raw, LogTarget: pm.logTarget,
		Lo: pm.lo, Hi: pm.hi, TrainError: pm.TrainError,
	}, nil
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

type planLevelState struct {
	Format int         `json:"format"`
	Model  *modelState `json:"model"`
	Mode   FeatureMode `json:"mode"`
}

// Save materializes the plan-level predictor as JSON.
func (p *PlanLevelPredictor) Save(w io.Writer) error {
	st, err := p.Model.marshal()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(planLevelState{Format: FormatVersion, Model: st, Mode: p.Mode})
}

// LoadPlanLevel restores a materialized plan-level predictor.
func LoadPlanLevel(r io.Reader) (*PlanLevelPredictor, error) {
	var st planLevelState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("qpp: load plan-level: %w", err)
	}
	if err := checkFormat("plan-level", st.Format); err != nil {
		return nil, err
	}
	pm, err := unmarshalModel("plan-level", st.Model, NumPlanFeatures())
	if err != nil {
		return nil, err
	}
	return &PlanLevelPredictor{Model: pm, Mode: st.Mode}, nil
}

type operatorLevelState struct {
	Format        int                    `json:"format"`
	Start         map[string]*modelState `json:"start"`
	Run           map[string]*modelState `json:"run"`
	Mode          FeatureMode            `json:"mode"`
	FallbackStart float64                `json:"fallback_start"`
	FallbackRun   float64                `json:"fallback_run"`
}

// marshalOpModels and unmarshalOpModels convert one side (start or run)
// of the per-operator-type models.
func marshalOpModels(models map[plan.OpType]*PlanModel) (map[string]*modelState, error) {
	out := map[string]*modelState{}
	for op, m := range models {
		st, err := m.marshal()
		if err != nil {
			return nil, err
		}
		out[op.String()] = st
	}
	return out, nil
}

func unmarshalOpModels(side string, states map[string]*modelState) (map[plan.OpType]*PlanModel, error) {
	out := map[plan.OpType]*PlanModel{}
	for name, st := range states {
		m, err := unmarshalModel(name+" "+side, st, NumOpFeatures())
		if err != nil {
			return nil, err
		}
		// A model for an operator this engine does not plan could never
		// be consulted: it is checked like the others, then dropped.
		if op, ok := plan.ParseOpType(name); ok {
			out[op] = m
		}
	}
	return out, nil
}

// Save materializes the operator-level predictor as JSON.
func (p *OperatorLevelPredictor) Save(w io.Writer) error {
	st := operatorLevelState{
		Format:        FormatVersion,
		Mode:          p.Mode,
		FallbackStart: p.fallbackStart.Value,
		FallbackRun:   p.fallbackRun.Value,
	}
	var err error
	if st.Start, err = marshalOpModels(p.start); err != nil {
		return err
	}
	if st.Run, err = marshalOpModels(p.run); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(st)
}

// LoadOperatorLevel restores a materialized operator-level predictor.
func LoadOperatorLevel(r io.Reader) (*OperatorLevelPredictor, error) {
	var st operatorLevelState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("qpp: load operator-level: %w", err)
	}
	if err := checkFormat("operator-level", st.Format); err != nil {
		return nil, err
	}
	p := &OperatorLevelPredictor{
		Mode:          st.Mode,
		fallbackStart: &mlearn.ConstantModel{Value: st.FallbackStart},
		fallbackRun:   &mlearn.ConstantModel{Value: st.FallbackRun},
	}
	var err error
	if p.start, err = unmarshalOpModels("start", st.Start); err != nil {
		return nil, err
	}
	if p.run, err = unmarshalOpModels("run", st.Run); err != nil {
		return nil, err
	}
	return p, nil
}

type costBaselineState struct {
	Format    int     `json:"format"`
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept"`
}

// Save materializes the cost-model baseline as JSON.
func (c *CostModelBaseline) Save(w io.Writer) error {
	slope, intercept := c.Coefficients()
	return json.NewEncoder(w).Encode(costBaselineState{Format: FormatVersion, Slope: slope, Intercept: intercept})
}

// LoadCostBaseline restores a materialized cost-model baseline.
func LoadCostBaseline(r io.Reader) (*CostModelBaseline, error) {
	var st costBaselineState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("qpp: load cost baseline: %w", err)
	}
	if err := checkFormat("cost-baseline", st.Format); err != nil {
		return nil, err
	}
	lr := mlearn.NewLinearRegression(0)
	lr.Coef = []float64{st.Slope}
	lr.Intercept = st.Intercept
	return &CostModelBaseline{model: lr}, nil
}

type subplanModelsState struct {
	Start *modelState `json:"start"`
	Run   *modelState `json:"run"`
}

type hybridState struct {
	Format int                           `json:"format"`
	Ops    json.RawMessage               `json:"ops"`
	Plans  map[string]subplanModelsState `json:"plans"`
	Mode   FeatureMode                   `json:"mode"`
}

// Save materializes the hybrid predictor: the operator models plus every
// accepted sub-plan model, keyed by canonical signature.
func (h *HybridPredictor) Save(w io.Writer) error {
	var opsBuf bytes.Buffer
	if err := h.Ops.Save(&opsBuf); err != nil {
		return err
	}
	st := hybridState{Format: FormatVersion, Ops: json.RawMessage(opsBuf.Bytes()), Plans: map[string]subplanModelsState{}, Mode: h.Mode}
	for sig, pm := range h.Plans {
		start, err := pm.Start.marshal()
		if err != nil {
			return err
		}
		run, err := pm.Run.marshal()
		if err != nil {
			return err
		}
		st.Plans[sig] = subplanModelsState{Start: start, Run: run}
	}
	return json.NewEncoder(w).Encode(st)
}

// LoadHybrid restores a materialized hybrid predictor.
func LoadHybrid(r io.Reader) (*HybridPredictor, error) {
	var st hybridState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("qpp: load hybrid: %w", err)
	}
	if err := checkFormat("hybrid", st.Format); err != nil {
		return nil, err
	}
	ops, err := LoadOperatorLevel(bytes.NewReader(st.Ops))
	if err != nil {
		return nil, err
	}
	h := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: st.Mode}
	for sig, s := range st.Plans {
		start, err := unmarshalModel("sub-plan "+sig+" start", s.Start, NumPlanFeatures())
		if err != nil {
			return nil, err
		}
		run, err := unmarshalModel("sub-plan "+sig+" run", s.Run, NumPlanFeatures())
		if err != nil {
			return nil, err
		}
		h.Plans[sig] = &SubplanModels{Start: start, Run: run}
	}
	return h, nil
}
