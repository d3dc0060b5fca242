package mlearn

// Standardizer rescales features to zero mean and unit variance, the usual
// preprocessing for SVR with an RBF kernel. Constant columns are left
// centered but unscaled.
type Standardizer struct {
	Means []float64
	Stds  []float64
}

// FitStandardizer computes per-column statistics from x.
func FitStandardizer(x *Matrix) *Standardizer {
	s := &Standardizer{
		Means: make([]float64, x.Cols),
		Stds:  make([]float64, x.Cols),
	}
	for j := 0; j < x.Cols; j++ {
		col := x.Col(j)
		s.Means[j] = Mean(col)
		sd := StdDev(col)
		if sd == 0 {
			sd = 1
		}
		s.Stds[j] = sd
	}
	return s
}

// Transform returns a standardized copy of x.
func (s *Standardizer) Transform(x *Matrix) *Matrix {
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		s.TransformRow(out.Row(i))
	}
	return out
}

// TransformRow standardizes one feature row in place.
func (s *Standardizer) TransformRow(row []float64) {
	for j := range row {
		row[j] = (row[j] - s.Means[j]) / s.Stds[j]
	}
}

// ScaledModel wraps a Regressor with input standardization and optional
// target standardization, so callers can train on raw feature values.
type ScaledModel struct {
	Inner       Regressor
	ScaleTarget bool

	xs           *Standardizer
	yMean, yStd  float64
	targetScaled bool
}

// NewScaledModel wraps inner with feature and target standardization.
func NewScaledModel(inner Regressor) *ScaledModel {
	return &ScaledModel{Inner: inner, ScaleTarget: true}
}

// Fit standardizes x (and y when ScaleTarget) and trains the inner model.
func (m *ScaledModel) Fit(x *Matrix, y []float64) error {
	m.xs = FitStandardizer(x)
	xt := m.xs.Transform(x)
	yt := y
	m.targetScaled = false
	if m.ScaleTarget {
		m.yMean = Mean(y)
		m.yStd = StdDev(y)
		if m.yStd == 0 {
			m.yStd = 1
		}
		yt = make([]float64, len(y))
		for i, v := range y {
			yt[i] = (v - m.yMean) / m.yStd
		}
		m.targetScaled = true
	}
	return m.Inner.Fit(xt, yt)
}

// Predict standardizes the row, applies the inner model, and rescales the
// output back to target units.
func (m *ScaledModel) Predict(row []float64) float64 {
	var buf [StackRow]float64
	r := buf[:0]
	if len(row) > len(buf) {
		r = make([]float64, 0, len(row))
	}
	r = append(r, row...)
	m.xs.TransformRow(r)
	out := PredictRow(m.Inner, r)
	if m.targetScaled {
		out = out*m.yStd + m.yMean
	}
	return out
}

// ConstantModel predicts the training-set mean; it is the fallback when a
// model class cannot be trained (e.g. a single training example).
type ConstantModel struct{ Value float64 }

// Fit stores the mean of y.
func (c *ConstantModel) Fit(_ *Matrix, y []float64) error {
	c.Value = Mean(y)
	return nil
}

// Predict returns the stored constant.
func (c *ConstantModel) Predict(_ []float64) float64 { return c.Value }
