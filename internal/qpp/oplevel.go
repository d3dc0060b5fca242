package qpp

import (
	"fmt"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// ErrSubqueryPlan is returned when operator-level prediction is asked to
// handle a plan with init-plan/sub-plan structures, which the paper's
// operator-level models cannot cope with (Section 5.3, footnote 2).
var ErrSubqueryPlan = fmt.Errorf("qpp: plan contains init-plan/sub-plan structures; operator-level models do not apply")

// MeanRelativeError evaluates predict over executed records with the
// paper's metric. Records it answers ErrSubqueryPlan for are skipped and
// counted; any other error ends the evaluation and is returned, so a
// method that fails cannot score as one that predicts perfectly.
func MeanRelativeError(recs []*QueryRecord, predict func(*QueryRecord) (float64, error)) (mre float64, skipped int, err error) {
	act := make([]float64, 0, len(recs))
	pred := make([]float64, 0, len(recs))
	for _, r := range recs {
		v, perr := predict(r)
		if perr == ErrSubqueryPlan {
			skipped++
			continue
		}
		if perr != nil {
			return 0, skipped, perr
		}
		act = append(act, r.Time)
		pred = append(pred, v)
	}
	return mlearn.MeanRelativeError(act, pred), skipped, nil
}

// ChildTimeSource selects where child start/run time features come from at
// prediction time.
type ChildTimeSource int

const (
	// ChildTimesPredicted composes child estimates bottom-up (the real
	// deployment mode; prediction errors propagate upward, as the paper
	// discusses in Section 3.3).
	ChildTimesPredicted ChildTimeSource = iota
	// ChildTimesActual feeds observed child times (the actual/actual
	// oracle configuration of Figure 7).
	ChildTimesActual
)

// OperatorLevelPredictor holds one start-time and one run-time model per
// operator type and composes them hierarchically over plans.
type OperatorLevelPredictor struct {
	start map[plan.OpType]*PlanModel
	run   map[plan.OpType]*PlanModel
	Mode  FeatureMode
	// fallbackStart/Run predict for operator types unseen in training.
	fallbackStart *mlearn.ConstantModel
	fallbackRun   *mlearn.ConstantModel
}

// OpModelConfig returns the paper's operator-level configuration: linear
// regression with forward feature selection.
func OpModelConfig() PlanModelConfig {
	cfg := DefaultPlanModelConfig()
	cfg.Kind = ModelLinear
	return cfg
}

// TrainOperatorModels fits per-operator-type start/run models from the
// instrumented plans of executed queries. Plans containing sub-query
// structures are skipped, mirroring the paper's 14-template restriction.
func TrainOperatorModels(recs []*QueryRecord, mode FeatureMode, cfg PlanModelConfig) (*OperatorLevelPredictor, error) {
	if err := validateRecords(recs); err != nil {
		return nil, err
	}
	type sample struct {
		f      []float64
		st, rt float64
	}
	byOp := map[plan.OpType][]sample{}
	var allST, allRT []float64
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		r.Root.WalkTree(func(n *plan.Node) {
			var st1, rt1, st2, rt2 float64
			if len(n.Children) > 0 {
				st1, rt1 = nodeTimes(n.Children[0])
			}
			if len(n.Children) > 1 {
				st2, rt2 = nodeTimes(n.Children[1])
			}
			f := OpFeatures(n, mode, st1, rt1, st2, rt2)
			st, rt := nodeTimes(n)
			byOp[n.Op] = append(byOp[n.Op], sample{f: f, st: st, rt: rt})
			allST = append(allST, st)
			allRT = append(allRT, rt)
		})
	}
	if len(allRT) == 0 {
		return nil, fmt.Errorf("qpp: no operator samples in training data")
	}
	p := &OperatorLevelPredictor{
		start:         map[plan.OpType]*PlanModel{},
		run:           map[plan.OpType]*PlanModel{},
		Mode:          mode,
		fallbackStart: &mlearn.ConstantModel{Value: mlearn.Mean(allST)},
		fallbackRun:   &mlearn.ConstantModel{Value: mlearn.Mean(allRT)},
	}
	for op, samples := range byOp {
		x := mlearn.NewMatrix(len(samples), NumOpFeatures())
		st := make([]float64, len(samples))
		rt := make([]float64, len(samples))
		for i, s := range samples {
			copy(x.Row(i), s.f)
			st[i] = s.st
			rt[i] = s.rt
		}
		sm, err := trainModel(x, st, cfg, opMinRows)
		if err != nil {
			return nil, fmt.Errorf("qpp: start model for %s: %w", op, err)
		}
		rm, err := trainModel(x, rt, cfg, opMinRows)
		if err != nil {
			return nil, fmt.Errorf("qpp: run model for %s: %w", op, err)
		}
		p.start[op] = sm
		p.run[op] = rm
	}
	return p, nil
}

// PredictNode returns the start-time and run-time estimates for the
// sub-plan rooted at n, composing child predictions bottom-up.
func (p *OperatorLevelPredictor) PredictNode(n *plan.Node, src ChildTimeSource) (st, rt float64) {
	var st1, rt1, st2, rt2 float64
	if len(n.Children) > 0 {
		if src == ChildTimesActual {
			st1, rt1 = nodeTimes(n.Children[0])
		} else {
			st1, rt1 = p.PredictNode(n.Children[0], src)
		}
	}
	if len(n.Children) > 1 {
		if src == ChildTimesActual {
			st2, rt2 = nodeTimes(n.Children[1])
		} else {
			st2, rt2 = p.PredictNode(n.Children[1], src)
		}
	}
	return p.predictWithChildren(n, st1, rt1, st2, rt2)
}

// predictWithChildren applies the per-operator models to one node given
// its children's (predicted or observed) start/run times.
func (p *OperatorLevelPredictor) predictWithChildren(n *plan.Node, st1, rt1, st2, rt2 float64) (st, rt float64) {
	f := OpFeatures(n, p.Mode, st1, rt1, st2, rt2)
	if sm, ok := p.start[n.Op]; ok {
		st = sm.Predict(f)
	} else {
		st = p.fallbackStart.Predict(nil)
	}
	if rm, ok := p.run[n.Op]; ok {
		rt = rm.Predict(f)
	} else {
		rt = p.fallbackRun.Predict(nil)
	}
	if rt < st {
		rt = st
	}
	return st, rt
}

// Predict estimates a query's latency (the run-time of its root). It
// returns ErrSubqueryPlan for plans with init-/sub-plan structures.
func (p *OperatorLevelPredictor) Predict(rec *QueryRecord, src ChildTimeSource) (float64, error) {
	if rec.Root.HasSubqueryStructures() {
		return 0, ErrSubqueryPlan
	}
	_, rt := p.PredictNode(rec.Root, src)
	return rt, nil
}
