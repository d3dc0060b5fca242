package experiments

import (
	"qpp/internal/obs"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

// ActPred is one scatter point: observed vs predicted latency.
type ActPred struct {
	Template  int
	Actual    float64
	Predicted float64
}

// Fig6Result reproduces the static-workload experiments of Section 5.3:
// plan-level prediction on the 18 templates and operator-level prediction
// on the 14 sub-plan-free templates, for both database scales, with
// stratified K-fold cross validation.
type Fig6Result struct {
	PlanLarge []TemplateError // Figure 6(a)
	PlanSmall []TemplateError // Figure 6(c)
	OpLarge   []TemplateError // Figure 6(d)
	OpSmall   []TemplateError // Figure 6(f)

	PlanLargeMean, PlanSmallMean float64
	OpLargeMean, OpSmallMean     float64
	// OpLargeBestMean / OpSmallBestMean average only templates under the
	// paper's quality bands (20% / 25%), the "11 of 14" / "8 of 14" rows.
	OpLargeBestMean, OpSmallBestMean float64
	OpLargeBestN, OpSmallBestN       int

	PlanLargeScatter []ActPred // Figure 6(b)
	OpLargeScatter   []ActPred // Figure 6(e)

	// Metrics carries the four error distributions
	// ("relerr.fig6.{plan,op}.{large,small}" plus per-template
	// histograms) when the obs layer is on; nil otherwise.
	Metrics *obs.Registry
}

// Fig6 runs plan- and operator-level static prediction on both datasets.
func Fig6(env *Env) (*Fig6Result, error) { return fig6(env, new(qpp.TrainMemo)) }

// fig6 is Fig6 training through memo (nil: every model trained afresh).
func fig6(env *Env, memo *qpp.TrainMemo) (*Fig6Result, error) {
	out := &Fig6Result{Metrics: env.figRegistry()}

	run := func(ds *workload.Dataset, large bool) error {
		// Plan-level: all templates.
		recs := ds.Records
		planPred, err := env.crossVal(recs, fitPlanLevel(qpp.FeatEstimates, qpp.FeatEstimates, memo))
		if err != nil {
			return err
		}
		planErrs := perTemplateErrors(recs, planPred)
		planMean := meanError(recs, planPred)

		// Operator-level: the 14 templates without subquery structures.
		opRecs := workload.FilterTemplates(recs, tpch.OperatorLevelTemplates)
		opPred, err := env.crossVal(opRecs, fitOperatorLevel(qpp.FeatEstimates, qpp.FeatEstimates, qpp.ChildTimesPredicted, memo))
		if err != nil {
			return err
		}
		opErrs := perTemplateErrors(opRecs, opPred)
		opMean := meanError(opRecs, opPred)

		scale := "small"
		if large {
			scale = "large"
		}
		recordErrDist(out.Metrics, "fig6.plan."+scale, recs, planPred)
		recordErrDist(out.Metrics, "fig6.op."+scale, opRecs, opPred)

		if large {
			out.PlanLarge, out.PlanLargeMean = planErrs, planMean
			out.OpLarge, out.OpLargeMean = opErrs, opMean
			out.OpLargeBestMean, out.OpLargeBestN = bestBandMean(opErrs, 0.20)
			for i, r := range recs {
				out.PlanLargeScatter = append(out.PlanLargeScatter, ActPred{r.Template, r.Time, planPred[i]})
			}
			for i, r := range opRecs {
				out.OpLargeScatter = append(out.OpLargeScatter, ActPred{r.Template, r.Time, opPred[i]})
			}
		} else {
			out.PlanSmall, out.PlanSmallMean = planErrs, planMean
			out.OpSmall, out.OpSmallMean = opErrs, opMean
			out.OpSmallBestMean, out.OpSmallBestN = bestBandMean(opErrs, 0.25)
		}
		return nil
	}
	if err := run(env.Large, true); err != nil {
		return nil, err
	}
	if err := run(env.Small, false); err != nil {
		return nil, err
	}
	return out, nil
}

// bestBandMean averages template errors at or under the band, mirroring
// the paper's "for these N templates the average error is X%" statements.
func bestBandMean(errs []TemplateError, band float64) (float64, int) {
	var sum float64
	n := 0
	for _, e := range errs {
		if e.Error <= band {
			sum += e.Error
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// fitPlanLevel and fitOperatorLevel are crossVal's fit for the two static
// methods: train in one feature mode, predict in another (Figure 7 trains
// on actuals and tests on estimates).
func fitPlanLevel(trainMode, testMode qpp.FeatureMode, memo *qpp.TrainMemo) func([]*qpp.QueryRecord) (predictFn, error) {
	return func(train []*qpp.QueryRecord) (predictFn, error) {
		m, err := qpp.TrainPlanLevel(train, trainMode, planCfg(memo))
		if err != nil {
			return nil, err
		}
		m.Mode = testMode
		return infallible(m.Predict), nil
	}
}

func fitOperatorLevel(trainMode, testMode qpp.FeatureMode, src qpp.ChildTimeSource, memo *qpp.TrainMemo) func([]*qpp.QueryRecord) (predictFn, error) {
	return func(train []*qpp.QueryRecord) (predictFn, error) {
		m, err := qpp.TrainOperatorModels(train, trainMode, opCfg(memo))
		if err != nil {
			return nil, err
		}
		m.Mode = testMode
		return func(r *qpp.QueryRecord) (float64, error) { return m.Predict(r, src) }, nil
	}
}
