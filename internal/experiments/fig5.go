package experiments

import (
	"qpp/internal/mlearn"
	"qpp/internal/obs"
	"qpp/internal/qpp"
)

// CostPoint is one (optimizer cost, observed latency) point of Figure 5's
// scatter plot.
type CostPoint struct {
	Template int
	Cost     float64
	Time     float64
}

// Fig5Result reproduces Section 5.2: predicting latency from the
// optimizer's analytical cost with linear regression.
type Fig5Result struct {
	Points []CostPoint
	// Slope and Intercept of the least-squares fit over all data.
	Slope, Intercept float64
	// Cross-validated relative-error statistics (paper: min 30%,
	// mean 120%, max 1744%).
	MinRel, MeanRel, MaxRel float64
	// PredictiveRisk is the R^2-style metric (paper footnote: ~0.93,
	// deceptively close to 1 despite the high relative errors).
	PredictiveRisk float64
	// Metrics carries the cross-validated error distribution
	// ("relerr.fig5.cost" plus per-template histograms) when the obs
	// layer is on; nil otherwise.
	Metrics *obs.Registry
}

// Fig5 runs the optimizer-cost baseline on the large dataset.
func Fig5(env *Env) (*Fig5Result, error) {
	recs := env.Large.Records
	out := &Fig5Result{}
	for _, r := range recs {
		out.Points = append(out.Points, CostPoint{
			Template: r.Template, Cost: r.Root.Est.TotalCost, Time: r.Time,
		})
	}
	full, err := qpp.TrainCostBaseline(recs)
	if err != nil {
		return nil, err
	}
	out.Slope, out.Intercept = full.Coefficients()

	pred, err := env.crossVal(recs, func(train []*qpp.QueryRecord) (predictFn, error) {
		cb, err := qpp.TrainCostBaseline(train)
		if err != nil {
			return nil, err
		}
		return infallible(cb.Predict), nil
	})
	if err != nil {
		return nil, err
	}
	act := make([]float64, len(recs))
	for i, r := range recs {
		act[i] = r.Time
	}
	out.MinRel = mlearn.MinRelativeError(act, pred)
	out.MeanRel = mlearn.MeanRelativeError(act, pred)
	out.MaxRel = mlearn.MaxRelativeError(act, pred)
	out.PredictiveRisk = mlearn.PredictiveRisk(act, pred)
	out.Metrics = env.figRegistry()
	recordErrDist(out.Metrics, "fig5.cost", recs, pred)
	return out, nil
}
