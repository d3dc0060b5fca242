package mlearn

import (
	"encoding/json"
	"fmt"
)

// Model (de)serialization: the QPP paper materializes trained models so
// they are "immediately ready for use in predictions whenever needed";
// this file provides the JSON encoding behind that materialization for
// every Regressor implementation in the package.

// modelEnvelope tags a serialized model with its concrete type.
type modelEnvelope struct {
	Type  string          `json:"type"`
	State json.RawMessage `json:"state"`
}

// MarshalModel encodes any supported Regressor with a type tag.
func MarshalModel(m Regressor) ([]byte, error) {
	var typ string
	var state any
	switch v := m.(type) {
	case *LinearRegression:
		typ = "linreg"
		state = linregState{Coef: v.Coef, Intercept: v.Intercept, Lambda: v.Lambda, FitIntercept: v.FitIntercept}
	case *RelativeLinearRegression:
		typ = "rel-linreg"
		state = relLinregState{Lambda: v.Lambda, FloorFrac: v.FloorFrac, Coef: v.inner.Coef, D: v.d}
	case *SVR:
		typ = "svr"
		st := svrState{
			Kind: svrKindNu, Kernel: svrKernelRBF, C: v.C, Epsilon: svrEpsilon,
			Nu: v.Nu, Gamma: v.gamma, Coef: v.coef, B: v.b,
		}
		if v.sv != nil {
			st.SVRows, st.SVCols, st.SVData = v.sv.Rows, v.sv.Cols, v.sv.Data
		}
		state = st
	case *ScaledModel:
		inner, err := MarshalModel(v.Inner)
		if err != nil {
			return nil, err
		}
		typ = "scaled"
		state = scaledState{
			Inner: inner, ScaleTarget: v.ScaleTarget, TargetScaled: v.targetScaled,
			YMean: v.yMean, YStd: v.yStd, XMeans: v.xs.Means, XStds: v.xs.Stds,
		}
	case *ConstantModel:
		typ = "constant"
		state = constState{Value: v.Value}
	default:
		return nil, fmt.Errorf("mlearn: cannot marshal model of type %T", m)
	}
	raw, err := json.Marshal(state)
	if err != nil {
		return nil, err
	}
	return json.Marshal(modelEnvelope{Type: typ, State: raw})
}

// UnmarshalModel decodes a model previously written by MarshalModel that
// is to be fed feature rows of width values. A model file is outside
// input: a state whose dimensions disagree with each other or with width,
// which Predict would index past or mispredict from, is refused with an
// error naming the field.
func UnmarshalModel(data []byte, width int) (Regressor, error) {
	var env modelEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("mlearn: bad model envelope: %w", err)
	}
	switch env.Type {
	case "linreg":
		var st linregState
		if err := json.Unmarshal(env.State, &st); err != nil {
			return nil, err
		}
		if len(st.Coef) != width {
			return nil, fmt.Errorf("mlearn: linreg: coef has %d entries, the input %d", len(st.Coef), width)
		}
		return &LinearRegression{Coef: st.Coef, Intercept: st.Intercept, Lambda: st.Lambda, FitIntercept: st.FitIntercept}, nil
	case "rel-linreg":
		var st relLinregState
		if err := json.Unmarshal(env.State, &st); err != nil {
			return nil, err
		}
		switch {
		case st.D != width:
			return nil, fmt.Errorf("mlearn: rel-linreg: d is %d, the input %d", st.D, width)
		case len(st.Coef) != st.D+1:
			return nil, fmt.Errorf("mlearn: rel-linreg: coef has %d entries, d+1 is %d", len(st.Coef), st.D+1)
		}
		m := &RelativeLinearRegression{Lambda: st.Lambda, FloorFrac: st.FloorFrac, d: st.D}
		m.inner = &LinearRegression{Coef: st.Coef, FitIntercept: false}
		return m, nil
	case "svr":
		var st svrState
		if err := json.Unmarshal(env.State, &st); err != nil {
			return nil, err
		}
		switch {
		case st.Kind != svrKindNu:
			return nil, fmt.Errorf("mlearn: svr: kind %d is not the nu formulation (%d), the only one this build has", st.Kind, svrKindNu)
		case st.Kernel != svrKernelRBF:
			return nil, fmt.Errorf("mlearn: svr: kernel %d is not the RBF kernel (%d), the only one this build has", st.Kernel, svrKernelRBF)
		case len(st.Coef) != st.SVRows:
			return nil, fmt.Errorf("mlearn: svr: coef has %d entries, sv_rows is %d", len(st.Coef), st.SVRows)
		case st.SVCols != width && (st.SVRows > 0 || st.SVCols != 0):
			return nil, fmt.Errorf("mlearn: svr: sv_cols is %d, the input %d", st.SVCols, width)
		case len(st.SVData) != st.SVRows*st.SVCols:
			return nil, fmt.Errorf("mlearn: svr: sv_data has %d values, sv_rows*sv_cols is %d", len(st.SVData), st.SVRows*st.SVCols)
		}
		m := &SVR{C: st.C, Nu: st.Nu, Gamma: st.Gamma, gamma: st.Gamma, coef: st.Coef, b: st.B}
		m.sv = &Matrix{Rows: st.SVRows, Cols: st.SVCols, Data: st.SVData}
		if m.sv.Data == nil {
			m.sv.Data = []float64{}
		}
		return m, nil
	case "scaled":
		var st scaledState
		if err := json.Unmarshal(env.State, &st); err != nil {
			return nil, err
		}
		switch {
		case len(st.XMeans) != width:
			return nil, fmt.Errorf("mlearn: scaled: x_means has %d entries, the input %d", len(st.XMeans), width)
		case len(st.XStds) != width:
			return nil, fmt.Errorf("mlearn: scaled: x_stds has %d entries, the input %d", len(st.XStds), width)
		}
		inner, err := UnmarshalModel(st.Inner, width)
		if err != nil {
			return nil, err
		}
		return &ScaledModel{
			Inner: inner, ScaleTarget: st.ScaleTarget, targetScaled: st.TargetScaled,
			yMean: st.YMean, yStd: st.YStd,
			xs: &Standardizer{Means: st.XMeans, Stds: st.XStds},
		}, nil
	case "constant":
		var st constState
		if err := json.Unmarshal(env.State, &st); err != nil {
			return nil, err
		}
		return &ConstantModel{Value: st.Value}, nil
	default:
		return nil, fmt.Errorf("mlearn: unknown model type %q", env.Type)
	}
}

type linregState struct {
	Coef         []float64 `json:"coef"`
	Intercept    float64   `json:"intercept"`
	Lambda       float64   `json:"lambda"`
	FitIntercept bool      `json:"fit_intercept"`
}

type relLinregState struct {
	Lambda    float64   `json:"lambda"`
	FloorFrac float64   `json:"floor_frac"`
	Coef      []float64 `json:"coef"`
	D         int       `json:"d"`
}

// An svrState's kind, kernel and epsilon date from when the package also
// had the epsilon formulation (kind 0) and a linear kernel (kernel 1):
// every model written since is a nu-SVR (kind 1) with the RBF kernel
// (kernel 0), and its epsilon was the unused default 0.1. They are still
// written, so model files keep their bytes, and checked on load.
const (
	svrKindNu    = 1
	svrKernelRBF = 0
	svrEpsilon   = 0.1
)

type svrState struct {
	Kind    int       `json:"kind"`
	Kernel  int       `json:"kernel"`
	C       float64   `json:"c"`
	Epsilon float64   `json:"epsilon"`
	Nu      float64   `json:"nu"`
	Gamma   float64   `json:"gamma"`
	Coef    []float64 `json:"coef"`
	B       float64   `json:"b"`
	SVRows  int       `json:"sv_rows"`
	SVCols  int       `json:"sv_cols"`
	SVData  []float64 `json:"sv_data"`
}

type scaledState struct {
	Inner        json.RawMessage `json:"inner"`
	ScaleTarget  bool            `json:"scale_target"`
	TargetScaled bool            `json:"target_scaled"`
	YMean        float64         `json:"y_mean"`
	YStd         float64         `json:"y_std"`
	XMeans       []float64       `json:"x_means"`
	XStds        []float64       `json:"x_stds"`
}

type constState struct {
	Value float64 `json:"value"`
}
