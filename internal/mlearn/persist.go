package mlearn

import "fmt"

// Model (de)serialization: the QPP paper materializes trained models so
// they are "immediately ready for use in predictions whenever needed";
// this file provides the persisted state behind that materialization for
// every Regressor implementation in the package. The state is plain data
// that the caller encodes as part of its own document.

// ModelState is the persisted form of a fitted Regressor: exactly one
// field is set, the one of the model's type.
type ModelState struct {
	Linear    *linregState    `json:"linreg,omitempty"`
	RelLinear *relLinregState `json:"rel_linreg,omitempty"`
	SVR       *svrState       `json:"svr,omitempty"`
	Scaled    *scaledState    `json:"scaled,omitempty"`
	Constant  *constState     `json:"constant,omitempty"`
}

// MarshalModel captures any supported Regressor's fitted state.
func MarshalModel(m Regressor) (*ModelState, error) {
	switch v := m.(type) {
	case *LinearRegression:
		return &ModelState{Linear: &linregState{Coef: v.Coef, Intercept: v.Intercept, Lambda: v.Lambda, FitIntercept: v.FitIntercept}}, nil
	case *RelativeLinearRegression:
		return &ModelState{RelLinear: &relLinregState{Lambda: v.Lambda, FloorFrac: v.FloorFrac, Coef: v.inner.Coef, D: v.d}}, nil
	case *SVR:
		st := &svrState{C: v.C, Nu: v.Nu, Gamma: v.gamma, Coef: v.coef, B: v.b}
		if v.sv != nil {
			st.SVRows, st.SVCols, st.SVData = v.sv.Rows, v.sv.Cols, v.sv.Data
		}
		return &ModelState{SVR: st}, nil
	case *ScaledModel:
		inner, err := MarshalModel(v.Inner)
		if err != nil {
			return nil, err
		}
		return &ModelState{Scaled: &scaledState{
			Inner: inner, ScaleTarget: v.ScaleTarget, TargetScaled: v.targetScaled,
			YMean: v.yMean, YStd: v.yStd, XMeans: v.xs.Means, XStds: v.xs.Stds,
		}}, nil
	case *ConstantModel:
		return &ModelState{Constant: &constState{Value: v.Value}}, nil
	default:
		return nil, fmt.Errorf("mlearn: cannot marshal model of type %T", m)
	}
}

// UnmarshalModel restores a model captured by MarshalModel that is to be
// fed feature rows of width values. A model file is outside input: a
// state that sets other than one model, or whose dimensions disagree with
// each other or with width, which Predict would index past or mispredict
// from, is refused with an error naming the field.
func UnmarshalModel(st *ModelState, width int) (Regressor, error) {
	set := 0
	if st != nil {
		for _, p := range []bool{st.Linear != nil, st.RelLinear != nil, st.SVR != nil, st.Scaled != nil, st.Constant != nil} {
			if p {
				set++
			}
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("mlearn: model state holds %d models, want exactly one", set)
	}
	switch {
	case st.Linear != nil:
		s := st.Linear
		if len(s.Coef) != width {
			return nil, fmt.Errorf("mlearn: linreg: coef has %d entries, the input %d", len(s.Coef), width)
		}
		return &LinearRegression{Coef: s.Coef, Intercept: s.Intercept, Lambda: s.Lambda, FitIntercept: s.FitIntercept}, nil
	case st.RelLinear != nil:
		s := st.RelLinear
		switch {
		case s.D != width:
			return nil, fmt.Errorf("mlearn: rel-linreg: d is %d, the input %d", s.D, width)
		case len(s.Coef) != s.D+1:
			return nil, fmt.Errorf("mlearn: rel-linreg: coef has %d entries, d+1 is %d", len(s.Coef), s.D+1)
		}
		m := &RelativeLinearRegression{Lambda: s.Lambda, FloorFrac: s.FloorFrac, d: s.D}
		m.inner = &LinearRegression{Coef: s.Coef, FitIntercept: false}
		return m, nil
	case st.SVR != nil:
		s := st.SVR
		switch {
		case len(s.Coef) != s.SVRows:
			return nil, fmt.Errorf("mlearn: svr: coef has %d entries, sv_rows is %d", len(s.Coef), s.SVRows)
		case s.SVCols != width && (s.SVRows > 0 || s.SVCols != 0):
			return nil, fmt.Errorf("mlearn: svr: sv_cols is %d, the input %d", s.SVCols, width)
		case len(s.SVData) != s.SVRows*s.SVCols:
			return nil, fmt.Errorf("mlearn: svr: sv_data has %d values, sv_rows*sv_cols is %d", len(s.SVData), s.SVRows*s.SVCols)
		}
		m := &SVR{C: s.C, Nu: s.Nu, Gamma: s.Gamma, gamma: s.Gamma, coef: s.Coef, b: s.B}
		m.sv = &Matrix{Rows: s.SVRows, Cols: s.SVCols, Data: s.SVData}
		if m.sv.Data == nil {
			m.sv.Data = []float64{}
		}
		return m, nil
	case st.Scaled != nil:
		s := st.Scaled
		switch {
		case len(s.XMeans) != width:
			return nil, fmt.Errorf("mlearn: scaled: x_means has %d entries, the input %d", len(s.XMeans), width)
		case len(s.XStds) != width:
			return nil, fmt.Errorf("mlearn: scaled: x_stds has %d entries, the input %d", len(s.XStds), width)
		}
		inner, err := UnmarshalModel(s.Inner, width)
		if err != nil {
			return nil, err
		}
		return &ScaledModel{
			Inner: inner, ScaleTarget: s.ScaleTarget, targetScaled: s.TargetScaled,
			yMean: s.YMean, yStd: s.YStd,
			xs: &Standardizer{Means: s.XMeans, Stds: s.XStds},
		}, nil
	default:
		return &ConstantModel{Value: st.Constant.Value}, nil
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

// svrState is a nu-SVR with the RBF kernel, the only formulation the
// package has.
type svrState struct {
	C      float64   `json:"c"`
	Nu     float64   `json:"nu"`
	Gamma  float64   `json:"gamma"`
	Coef   []float64 `json:"coef"`
	B      float64   `json:"b"`
	SVRows int       `json:"sv_rows"`
	SVCols int       `json:"sv_cols"`
	SVData []float64 `json:"sv_data"`
}

type scaledState struct {
	Inner        *ModelState `json:"inner"`
	ScaleTarget  bool        `json:"scale_target"`
	TargetScaled bool        `json:"target_scaled"`
	YMean        float64     `json:"y_mean"`
	YStd         float64     `json:"y_std"`
	XMeans       []float64   `json:"x_means"`
	XStds        []float64   `json:"x_stds"`
}

type constState struct {
	Value float64 `json:"value"`
}
