package qpp

import (
	"qpp/internal/mlearn"
)

// CostModelBaseline is the paper's Section 5.2 strawman: a linear
// regression from the optimizer's total cost estimate to execution
// latency. Figure 5 shows why it fails — cost units do not map linearly
// (or even monotonically) to seconds.
type CostModelBaseline struct {
	model *mlearn.LinearRegression
}

// TrainCostBaseline fits latency = a*cost + b over executed queries.
func TrainCostBaseline(recs []*QueryRecord) (*CostModelBaseline, error) {
	if err := validateRecords(recs); err != nil {
		return nil, err
	}
	x := mlearn.NewMatrix(len(recs), 1)
	y := make([]float64, len(recs))
	for i, r := range recs {
		x.Set(i, 0, r.Root.Est.TotalCost)
		y[i] = r.Time
	}
	lr := mlearn.NewLinearRegression(0)
	if err := lr.Fit(x, y); err != nil {
		return nil, err
	}
	return &CostModelBaseline{model: lr}, nil
}

// Predict maps an optimizer cost estimate to a latency.
func (c *CostModelBaseline) Predict(rec *QueryRecord) float64 {
	cost := [1]float64{rec.Root.Est.TotalCost}
	out := c.model.Predict(cost[:])
	if out < 0 {
		out = 0
	}
	return out
}

// Coefficients exposes the fitted slope and intercept (for the Figure 5
// least-squares line).
func (c *CostModelBaseline) Coefficients() (slope, intercept float64) {
	return c.model.Coef[0], c.model.Intercept
}
