package mlearn

// Regressor is the common contract of the prediction models used for QPP.
// Implementations are LinearRegression and SVR; the QPP layer is
// model-agnostic and interacts with models only through this interface,
// mirroring the paper's claim that its techniques "can readily work with
// different model types".
type Regressor interface {
	// Fit trains the model on the n x d feature matrix X and the n targets y.
	Fit(x *Matrix, y []float64) error
	// Predict returns the model output for a single d-dimensional feature row.
	Predict(row []float64) float64
}

// ModelFactory constructs a fresh, untrained Regressor. Cross-validation and
// feature selection use factories so every fold trains an independent model.
type ModelFactory func() Regressor

// StackRow is the longest feature row a prediction keeps in stack
// scratch; a longer one is copied to the heap.
const StackRow = 64

// PredictRow is m.Predict(row) called through m's concrete type, so a
// caller's row held in stack scratch stays there: passing it to an
// interface method would make every row escape. A Regressor of another
// type is handed a heap copy of row.
func PredictRow(m Regressor, row []float64) float64 {
	switch m := m.(type) {
	case *ScaledModel:
		return m.Predict(row)
	case *SVR:
		return m.Predict(row)
	case *RelativeLinearRegression:
		return m.Predict(row)
	case *LinearRegression:
		return m.Predict(row)
	case *ConstantModel:
		return m.Value
	}
	return m.Predict(append([]float64(nil), row...))
}
