package qpp

import (
	"sync"

	"qpp/internal/mlearn"
)

// OnlinePredictor is the paper's online modelling (Section 4): upon
// receipt of a query, each proper sub-plan of its execution plan that
// occurs often enough in the training data gets a plan-level model built
// over the already-logged feature data (no new sample runs). A model is
// kept only if its cross-validated accuracy beats operator-level
// composition on the same occurrences; this is how online modelling
// recovers models that offline strategies discarded.
//
// Whether a structure gets models depends on its training occurrences
// alone, never on the query that asked, so each signature is decided
// once, the first time a query contains it. A predictor is safe for
// concurrent use.
type OnlinePredictor struct {
	idx     *subplanIndex
	ops     *OperatorLevelPredictor
	planCfg PlanModelConfig
	// minOccurrences is the minimum number of training occurrences a
	// structure needs before models are attempted.
	minOccurrences int
	// Per signature id: decided guards the one decision, models holds its
	// outcome (nil = rejected).
	decided []sync.Once
	models  []*SubplanModels
}

// NewOnlinePredictor indexes the proper sub-plans of train and returns
// the online predictor composing with ops, training through memo (see
// PlanModelConfig.Memo; nil trains every model afresh).
func NewOnlinePredictor(train []*QueryRecord, ops *OperatorLevelPredictor, memo *TrainMemo) *OnlinePredictor {
	idx, _ := flattenRecords(train)
	return &OnlinePredictor{
		idx: idx, ops: ops, planCfg: subplanModelConfig(memo), minOccurrences: minOccurrences,
		decided: make([]sync.Once, len(idx.sigs)), models: make([]*SubplanModels, len(idx.sigs)),
	}
}

// Predict estimates the query's latency with the accepted models of its
// proper sub-plans, deciding the structures no earlier query contained.
func (p *OnlinePredictor) Predict(rec *QueryRecord) (float64, error) {
	if rec.Root.HasSubqueryStructures() {
		return 0, ErrSubqueryPlan
	}
	h := &HybridPredictor{Ops: p.ops, Plans: map[string]*SubplanModels{}, Mode: FeatEstimates}
	sigs := newSigTable()
	for _, e := range sigs.flatten(rec.Root, nil)[1:] {
		if e.size < 2 {
			continue
		}
		sig := sigs.sigs[e.sig]
		if id, ok := p.idx.ids[sig]; ok {
			p.decided[id].Do(func() { p.models[id] = p.decide(id) })
			if m := p.models[id]; m != nil {
				h.Plans[sig] = m
			}
		}
	}
	return h.Predict(rec)
}

// decide returns the models for signature id, nil when it has fewer than
// minOccurrences training occurrences or models that do not beat
// operator-level composition there under cross-validation.
func (p *OnlinePredictor) decide(id int32) *SubplanModels {
	occs := p.idx.occ[id]
	if len(occs) < p.minOccurrences {
		return nil
	}
	act := make([]float64, len(occs))
	opPred := make([]float64, len(occs))
	x := mlearn.NewMatrix(len(occs), NumPlanFeatures())
	for i, o := range occs {
		act[i] = o.node.Act.RunTime
		_, opPred[i] = p.ops.PredictNode(o.node, ChildTimesPredicted)
		copy(x.Row(i), PlanFeatures(o.node, FeatEstimates))
	}
	opErr := mlearn.MeanRelativeError(act, opPred)
	// Cross-validated over the folds the sub-plan models' own feature
	// selection uses.
	cvPred, err := p.planCfg.crossValPredict(x, act, mlearn.KFold(len(occs), p.planCfg.Folds, p.planCfg.Seed))
	if err != nil || mlearn.MeanRelativeError(act, cvPred) >= opErr {
		return nil
	}
	models, err := trainSubplanModels(occs, p.planCfg)
	if err != nil {
		return nil
	}
	return models
}
