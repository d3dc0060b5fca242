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
