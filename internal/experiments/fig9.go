package experiments

import (
	"qpp/internal/obs"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

// DynamicRow is one held-out template's result in the Figure-9 comparison.
type DynamicRow struct {
	Template   int
	PlanLevel  float64
	OpLevel    float64
	ErrorBased float64
	SizeBased  float64
	Online     float64
}

// Fig9Result reproduces the dynamic-workload experiment (Section 5.4):
// leave one template out, train every method on the remaining eleven, and
// predict the held-out template's queries.
type Fig9Result struct {
	Rows []DynamicRow
	// Means across templates, per method.
	PlanMean, OpMean, ErrMean, SizeMean, OnlineMean float64
	// Metrics carries one per-held-out-template error distribution per
	// method ("relerr.fig9.<method>") when the obs layer is on; nil
	// otherwise.
	Metrics *obs.Registry
}

// Fig9 runs the leave-one-template-out comparison over the paper's 12
// dynamic-workload templates.
func Fig9(env *Env) (*Fig9Result, error) { return fig9(env, new(qpp.TrainMemo)) }

// fig9 is Fig9 training through memo (nil: every model trained afresh).
// Both hybrid strategies and online modelling model the sub-plans of one
// training set, and a sub-plan the held-out template does not contain
// has the same occurrences whichever template is held out.
func fig9(env *Env, memo *qpp.TrainMemo) (*Fig9Result, error) {
	recs := workload.FilterTemplates(env.Large.Records, tpch.DynamicWorkloadTemplates)
	// Each held-out template trains its methods independently; rows are
	// computed concurrently into index-addressed slots and assembled in
	// template order below.
	rows := make([]*DynamicRow, len(tpch.DynamicWorkloadTemplates))
	err := env.forEachPar(len(tpch.DynamicWorkloadTemplates), func(ti int) error {
		heldOut := tpch.DynamicWorkloadTemplates[ti]
		train, test := workload.SplitLeaveTemplateOut(recs, heldOut)
		if len(test) == 0 || len(train) == 0 {
			return nil
		}
		row := DynamicRow{Template: heldOut}

		// Each method is evaluated right after it is trained: workers that
		// train everything first run in lock-step and wait on each other's
		// memo entries (measured: batch_train pass_s +3 to 5 %). The first
		// evaluation error is kept and fails the figure once the row is done.
		var evalErr error
		eval := func(predict predictFn) float64 {
			mre, _, err := qpp.MeanRelativeError(test, predict)
			if evalErr == nil {
				evalErr = err
			}
			return mre
		}

		pl, err := qpp.TrainPlanLevel(train, qpp.FeatEstimates, planCfg(memo))
		if err != nil {
			return err
		}
		row.PlanLevel = eval(infallible(pl.Predict))

		ops, err := qpp.TrainOperatorModels(train, qpp.FeatEstimates, opCfg(memo))
		if err != nil {
			return err
		}
		row.OpLevel = eval(func(r *qpp.QueryRecord) (float64, error) {
			return ops.Predict(r, qpp.ChildTimesPredicted)
		})

		for _, hy := range []struct {
			strategy qpp.Strategy
			into     *float64
		}{{qpp.ErrorBased, &row.ErrorBased}, {qpp.SizeBased, &row.SizeBased}} {
			h, _, err := qpp.TrainHybrid(train, hybridCfg(hy.strategy, memo))
			if err != nil {
				return err
			}
			*hy.into = eval(h.Predict)
		}

		// Online: build per-query models from the training index; the
		// cache shares per-signature decisions across the template's queries.
		idx := qpp.BuildSubplanIndex(train)
		onlineCfg := qpp.DefaultOnlineConfig()
		onlineCfg.Cache = qpp.NewOnlineCache()
		onlineCfg.PlanCfg.Memo = memo
		row.Online = eval(func(r *qpp.QueryRecord) (float64, error) {
			p, _, err := qpp.OnlinePredict(idx, ops, r, onlineCfg)
			return p, err
		})
		if evalErr != nil {
			return evalErr
		}
		rows[ti] = &row
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig9Result{Metrics: env.figRegistry()}
	for _, row := range rows {
		if row != nil {
			out.Rows = append(out.Rows, *row)
			if out.Metrics != nil {
				out.Metrics.Observe("relerr.fig9.plan", row.PlanLevel)
				out.Metrics.Observe("relerr.fig9.op", row.OpLevel)
				out.Metrics.Observe("relerr.fig9.error_based", row.ErrorBased)
				out.Metrics.Observe("relerr.fig9.size_based", row.SizeBased)
				out.Metrics.Observe("relerr.fig9.online", row.Online)
			}
		}
	}
	n := float64(len(out.Rows))
	for _, r := range out.Rows {
		out.PlanMean += r.PlanLevel / n
		out.OpMean += r.OpLevel / n
		out.ErrMean += r.ErrorBased / n
		out.SizeMean += r.SizeBased / n
		out.OnlineMean += r.Online / n
	}
	return out, nil
}
