package qpp

import (
	"math"
	"sort"
	"sync"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// OnlineConfig tunes online model building (Section 4).
type OnlineConfig struct {
	// MinOccurrences is the minimum number of training occurrences a
	// query sub-plan needs before an online model is attempted.
	MinOccurrences int
	// Memo, when non-nil, is the TrainMemo the online sub-plan models
	// train through (see PlanModelConfig.Memo).
	Memo *TrainMemo
	// Cache, when non-nil, memoizes per-signature build decisions across
	// queries (queries from one template share sub-plan structures, so the
	// same online models would otherwise be rebuilt per query).
	Cache *OnlineCache
}

// OnlineCache memoizes online model-building decisions by signature. It
// is safe for concurrent use, so one cache can serve predictions from
// many goroutines; decisions are deterministic functions of the training
// index, so concurrent writers always store the same value for a key.
type OnlineCache struct {
	mu        sync.Mutex
	decisions map[string]*SubplanModels // guarded by mu; nil value = rejected
}

// NewOnlineCache returns an empty cache.
func NewOnlineCache() *OnlineCache {
	return &OnlineCache{decisions: map[string]*SubplanModels{}}
}

// get returns the cached decision for sig and whether one exists.
func (c *OnlineCache) get(sig string) (*SubplanModels, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.decisions[sig]
	return m, ok
}

// put records the decision for sig (nil = rejected).
func (c *OnlineCache) put(sig string, m *SubplanModels) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decisions[sig] = m
}

// DefaultOnlineConfig returns the settings used in the experiments.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{MinOccurrences: minOccurrences}
}

// BuildOnlineModels implements the paper's online modeling: upon receipt
// of a query, enumerate the sub-plans of *its* execution plan, and for
// each one that occurs often enough in the training data, build a
// plan-level model online (over the already-logged feature data — no new
// sample runs). A model is kept only if its cross-validated accuracy beats
// the operator-level prediction accuracy on the same occurrences; this is
// how online modeling recovers models that offline strategies discarded.
func BuildOnlineModels(idx *SubplanIndex, ops *OperatorLevelPredictor, queryRoot *plan.Node, cfg OnlineConfig) *HybridPredictor {
	h := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: FeatEstimates}
	planCfg := subplanModelConfig(cfg.Memo)

	// Collect the distinct sub-plan structures of the incoming query,
	// largest first so bigger covering models win where both qualify.
	type cand struct {
		sig  string
		size int
	}
	seen := map[string]bool{}
	var cands []cand
	queryRoot.WalkTree(func(n *plan.Node) {
		if n == queryRoot || n.Size() < 2 {
			return
		}
		sig := n.Signature()
		if seen[sig] {
			return
		}
		seen[sig] = true
		cands = append(cands, cand{sig: sig, size: n.Size()})
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].sig < cands[j].sig
	})

	for _, c := range cands {
		if cfg.Cache != nil {
			if m, seen := cfg.Cache.get(c.sig); seen {
				if m != nil {
					h.Plans[c.sig] = m
				}
				continue
			}
		}
		occs := idx.occ[c.sig]
		if len(occs) < cfg.MinOccurrences {
			continue
		}
		// Operator-level accuracy on the training occurrences of this
		// sub-plan (with the current hybrid set, so nested accepted models
		// participate).
		var act, opPred []float64
		for _, o := range occs {
			_, rt := h.PredictNode(o.node)
			act = append(act, o.node.Act.RunTime)
			opPred = append(opPred, rt)
		}
		opErr := mlearn.MeanRelativeError(act, opPred)

		// Cross-validated accuracy of a candidate online plan-level model,
		// over the folds the sub-plan models' own feature selection uses.
		x := mlearn.NewMatrix(len(occs), NumPlanFeatures())
		rt := make([]float64, len(occs))
		for i, o := range occs {
			copy(x.Row(i), PlanFeatures(o.node, FeatEstimates))
			rt[i] = o.node.Act.RunTime
		}
		cvPred, err := planCfg.crossValPredict(x, rt, mlearn.KFold(len(occs), planCfg.Folds, planCfg.Seed))
		cvErr := math.Inf(1)
		if err == nil {
			cvErr = mlearn.MeanRelativeError(rt, cvPred)
		}
		if err != nil || cvErr >= opErr {
			if cfg.Cache != nil {
				cfg.Cache.put(c.sig, nil)
			}
			continue
		}
		models, err := trainSubplanModels(occs, planCfg)
		if err != nil {
			if cfg.Cache != nil {
				cfg.Cache.put(c.sig, nil)
			}
			continue
		}
		h.Plans[c.sig] = models
		if cfg.Cache != nil {
			cfg.Cache.put(c.sig, models)
		}
	}
	return h
}

// OnlinePredict builds query-specific online models and predicts the
// query's latency with them.
func OnlinePredict(idx *SubplanIndex, ops *OperatorLevelPredictor, rec *QueryRecord, cfg OnlineConfig) (float64, *HybridPredictor, error) {
	if rec.Root.HasSubqueryStructures() {
		return 0, nil, ErrSubqueryPlan
	}
	h := BuildOnlineModels(idx, ops, rec.Root, cfg)
	rt, err := h.Predict(rec)
	return rt, h, err
}
