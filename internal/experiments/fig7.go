package experiments

import (
	"qpp/internal/obs"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

// FeatureCombo is one train/test feature-source configuration of Figure 7(a).
type FeatureCombo struct {
	Train, Test string // "actual" or "estimate"
	PlanErr     float64
	OpErr       float64
}

// Fig7Result reproduces Section 5.3.3: the impact of optimizer estimation
// errors, comparing training/testing on actual vs estimated feature values.
type Fig7Result struct {
	Combos []FeatureCombo
	// PlanActualByTemplate is Figure 7(b): plan-level actual/actual
	// per-template errors on the large dataset.
	PlanActualByTemplate []TemplateError
	// Metrics carries one error distribution per feature combination
	// ("relerr.fig7.{plan,op}.<train>-<test>") when the obs layer is on;
	// nil otherwise.
	Metrics *obs.Registry
}

// Fig7 evaluates the three feature-source combinations on the large dataset.
func Fig7(env *Env) (*Fig7Result, error) { return fig7(env, new(qpp.TrainMemo)) }

// fig7 is Fig7 training through memo (nil: every model trained afresh).
// Actual/actual and actual/estimate train on the same features and
// differ only in what they are tested on.
func fig7(env *Env, memo *qpp.TrainMemo) (*Fig7Result, error) {
	recs := env.Large.Records
	opRecs := workload.FilterTemplates(recs, tpch.OperatorLevelTemplates)

	type combo struct {
		train, test qpp.FeatureMode
		name        [2]string
	}
	combos := []combo{
		{qpp.FeatActuals, qpp.FeatActuals, [2]string{"actual", "actual"}},
		{qpp.FeatEstimates, qpp.FeatEstimates, [2]string{"estimate", "estimate"}},
		{qpp.FeatActuals, qpp.FeatEstimates, [2]string{"actual", "estimate"}},
	}
	out := &Fig7Result{Metrics: env.figRegistry()}
	for _, c := range combos {
		planPred, err := env.crossVal(recs, fitPlanLevel(c.train, c.test, memo))
		if err != nil {
			return nil, err
		}
		// Operator-level. Child-time features are observed actuals in the
		// actual/actual oracle and composed predictions otherwise.
		src := qpp.ChildTimesPredicted
		if c.train == qpp.FeatActuals && c.test == qpp.FeatActuals {
			src = qpp.ChildTimesActual
		}
		opPred, err := env.crossVal(opRecs, fitOperatorLevel(c.train, c.test, src, memo))
		if err != nil {
			return nil, err
		}
		out.Combos = append(out.Combos, FeatureCombo{
			Train:   c.name[0],
			Test:    c.name[1],
			PlanErr: meanError(recs, planPred),
			OpErr:   meanError(opRecs, opPred),
		})
		comboName := c.name[0] + "-" + c.name[1]
		recordErrDist(out.Metrics, "fig7.plan."+comboName, recs, planPred)
		recordErrDist(out.Metrics, "fig7.op."+comboName, opRecs, opPred)
		if c.train == qpp.FeatActuals && c.test == qpp.FeatActuals {
			out.PlanActualByTemplate = perTemplateErrors(recs, planPred)
		}
	}
	return out, nil
}
