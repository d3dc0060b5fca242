package experiments

import (
	"fmt"

	"qpp/internal/obs"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

// IterPoint is one point of a Figure-8 curve: held-out error after an
// Algorithm-1 iteration.
type IterPoint struct {
	Iter  int
	Error float64
}

// Fig8Result compares the three hybrid plan-ordering strategies: error vs
// iteration curves on a held-out fifth of the large 14-template workload.
type Fig8Result struct {
	// Curves maps strategy name to its error trajectory; point 0 is the
	// pure operator-level error before any plan-level model is added.
	Curves map[string][]IterPoint
	// ModelsAccepted counts the plan-level models each strategy kept.
	ModelsAccepted map[string]int
	// Metrics carries per-strategy counters ("fig8.<strategy>.models",
	// ".final_err") and the curve's error distribution
	// ("relerr.fig8.<strategy>") when the obs layer is on; nil otherwise.
	Metrics *obs.Registry
}

// Fig8 runs Algorithm 1 under each strategy.
func Fig8(env *Env) (*Fig8Result, error) { return fig8(env, new(qpp.TrainMemo)) }

// fig8 is Fig8 training through memo (nil: every model trained afresh).
// The strategies order the same candidate sub-plans of one training set
// differently, so most of what one models another models too.
func fig8(env *Env, memo *qpp.TrainMemo) (*Fig8Result, error) {
	recs := workload.FilterTemplates(env.Large.Records, tpch.OperatorLevelTemplates)
	folds := stratifiedFolds(recs, 5, env.Cfg.Seed)
	train := subset(recs, folds[0].Train)
	test := subset(recs, folds[0].Test)

	// The three strategies are independent: train them concurrently and
	// assemble the result maps serially afterwards, in strategy order.
	strategies := []qpp.Strategy{qpp.ErrorBased, qpp.SizeBased, qpp.FrequencyBased}
	curves := make([][]IterPoint, len(strategies))
	accepted := make([]int, len(strategies))
	if err := env.forEachPar(len(strategies), func(si int) error {
		s := strategies[si]
		cfg := hybridCfg(s, memo)
		cfg.TargetError = 0 // run all iterations so the curves are comparable
		cfg.EvalRecs = test
		h, stats, err := qpp.TrainHybrid(train, cfg)
		if err != nil {
			return err
		}
		// Point 0: operator-level only.
		base := &qpp.HybridPredictor{Ops: h.Ops, Plans: map[string]*qpp.SubplanModels{}, Mode: h.Mode}
		baseErr, _, err := qpp.MeanRelativeError(test, base.Predict)
		if err != nil {
			return err
		}
		curve := []IterPoint{{Iter: 0, Error: baseErr}}
		for _, st := range stats {
			curve = append(curve, IterPoint{Iter: st.Iter, Error: st.TestError})
		}
		curves[si] = curve
		accepted[si] = h.NumPlanModels()
		return nil
	}); err != nil {
		return nil, err
	}
	out := &Fig8Result{
		Curves:         map[string][]IterPoint{},
		ModelsAccepted: map[string]int{},
		Metrics:        env.figRegistry(),
	}
	for si, s := range strategies {
		out.Curves[s.String()] = curves[si]
		out.ModelsAccepted[s.String()] = accepted[si]
		if out.Metrics != nil {
			name := s.String()
			out.Metrics.Add(fmt.Sprintf("fig8.%s.models", name), float64(accepted[si]))
			curve := curves[si]
			for _, pt := range curve {
				out.Metrics.Observe("relerr.fig8."+name, pt.Error)
			}
			if len(curve) > 0 {
				out.Metrics.Add(fmt.Sprintf("fig8.%s.final_err", name), curve[len(curve)-1].Error)
			}
		}
	}
	return out, nil
}
