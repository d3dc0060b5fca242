package qpp

import (
	"sort"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// SubplanModels is the pair of plan-level models (start-time, run-time)
// materialized for one sub-plan structure.
type SubplanModels struct {
	Start *PlanModel
	Run   *PlanModel
}

// subplanOcc is one occurrence of a sub-plan structure in the training
// workload: the owning record and the subtree root.
type subplanOcc struct {
	rec  *QueryRecord
	node *plan.Node
}

// SubplanIndex is the hash-based index over canonical sub-plan structures
// that Algorithm 1's get_plan_list builds: every proper sub-plan (two or
// more operators) of every training plan, keyed by structural signature.
type SubplanIndex struct {
	occ  map[string][]subplanOcc
	size map[string]int
}

// BuildSubplanIndex indexes the proper sub-plans of the given records.
// Plans with init-/sub-plan structures are skipped (the hybrid method
// extends operator-level prediction, which does not apply to them).
func BuildSubplanIndex(recs []*QueryRecord) *SubplanIndex {
	idx := &SubplanIndex{occ: map[string][]subplanOcc{}, size: map[string]int{}}
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		r.Root.WalkTree(func(n *plan.Node) {
			if n == r.Root || n.Size() < 2 {
				return
			}
			sig := n.Signature()
			idx.occ[sig] = append(idx.occ[sig], subplanOcc{rec: r, node: n})
			idx.size[sig] = n.Size()
		})
	}
	return idx
}

// Signatures returns all indexed signatures in sorted order, so callers
// iterating it produce deterministic results.
func (idx *SubplanIndex) Signatures() []string {
	out := make([]string, 0, len(idx.occ))
	for s := range idx.occ {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Occurrences returns how many times a signature appears.
func (idx *SubplanIndex) Occurrences(sig string) int { return len(idx.occ[sig]) }

// HybridPredictor composes operator-level models with materialized
// plan-level models for specific sub-plan structures (Section 3.4): when a
// sub-tree's signature has a plan-level model, that model predicts the
// whole sub-tree directly; otherwise the operator model composes over the
// children.
type HybridPredictor struct {
	Ops   *OperatorLevelPredictor
	Plans map[string]*SubplanModels
	Mode  FeatureMode
}

// ApplicabilityMargin widens each sub-plan model's training feature range
// before declaring it applicable to a new occurrence (see
// PlanModel.InRange). Occurrences outside the widened range fall back to
// operator-level composition.
const ApplicabilityMargin = 0.5

// predictStep is the hybrid method's one decision (Section 3.4): the
// sub-plan rooted at n, whose signature is sig, is answered by its
// materialised plan-level models when it has them and n's Table-1
// features lie within their widened training range, and by the operator
// models over its children's times otherwise. children is asked for
// those times only in the second case, so a traversal that computes them
// on demand never visits a node under an applicable model. modelled
// reports whether sig has models at all, applicable or not. Nothing else
// in the package consults Plans or a model's training range to predict.
func (h *HybridPredictor) predictStep(n *plan.Node, sig string, children func() (st1, rt1, st2, rt2 float64)) (st, rt float64, modelled bool) {
	pm, modelled := h.Plans[sig]
	if modelled {
		f := PlanFeatures(n, h.Mode)
		if pm.Run.InRange(f, ApplicabilityMargin) {
			st, rt = pm.Start.Predict(f), pm.Run.Predict(f)
			if rt < st {
				rt = st
			}
			return st, rt, true
		}
	}
	st1, rt1, st2, rt2 := children()
	st, rt = h.Ops.predictWithChildren(n, st1, rt1, st2, rt2)
	return st, rt, modelled
}

// PredictNode returns start/run estimates for the sub-plan rooted at n,
// top-down: children are predicted only where predictStep asks for them.
func (h *HybridPredictor) PredictNode(n *plan.Node) (st, rt float64) {
	st, rt, _ = h.predictStep(n, n.Signature(), func() (st1, rt1, st2, rt2 float64) {
		if len(n.Children) > 0 {
			st1, rt1 = h.PredictNode(n.Children[0])
		}
		if len(n.Children) > 1 {
			st2, rt2 = h.PredictNode(n.Children[1])
		}
		return st1, rt1, st2, rt2
	})
	return st, rt
}

// Predict estimates a query's latency.
func (h *HybridPredictor) Predict(rec *QueryRecord) (float64, error) {
	if rec.Root.HasSubqueryStructures() {
		return 0, ErrSubqueryPlan
	}
	_, rt := h.PredictNode(rec.Root)
	return rt, nil
}

// NumPlanModels reports how many sub-plan models the hybrid carries.
func (h *HybridPredictor) NumPlanModels() int { return len(h.Plans) }

// Strategy is Algorithm 1's plan ordering strategy.
type Strategy int

const (
	// SizeBased orders candidate sub-plans by increasing operator count
	// (smaller plans are more frequent and more reusable).
	SizeBased Strategy = iota
	// FrequencyBased orders by decreasing occurrence frequency.
	FrequencyBased
	// ErrorBased orders by decreasing frequency x average prediction error.
	ErrorBased
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case SizeBased:
		return "size-based"
	case FrequencyBased:
		return "frequency-based"
	default:
		return "error-based"
	}
}

// HybridConfig tunes Algorithm 1.
type HybridConfig struct {
	Strategy Strategy
	// Epsilon is the minimum training-error improvement for a new model to
	// be kept (Algorithm 1's ε).
	Epsilon float64
	// TargetError stops the loop once the training error drops below it.
	TargetError float64
	// MaxIters caps the iterations (Algorithm 1's termination fallback).
	MaxIters int
	// MinOccurrences excludes rarely occurring sub-plans from modeling.
	MinOccurrences int
	// SkipErrorBelow excludes sub-plans already predicted within this
	// relative error (paper: 0.1 for the size/frequency strategies).
	SkipErrorBelow float64
	// Mode selects estimate vs actual features.
	Mode FeatureMode
	// PlanCfg configures the sub-plan plan-level models; OpCfg the
	// operator-level models.
	PlanCfg PlanModelConfig
	OpCfg   PlanModelConfig
	// EvalRecs, when set, is a held-out workload evaluated after every
	// iteration; the resulting error lands in IterationStat.TestError
	// (Figure 8 plots this curve per strategy).
	EvalRecs []*QueryRecord
}

// DefaultHybridConfig mirrors the paper's experiment settings.
func DefaultHybridConfig(s Strategy) HybridConfig {
	return HybridConfig{
		Strategy:       s,
		Epsilon:        0.002,
		TargetError:    0.05,
		MaxIters:       30,
		MinOccurrences: 8,
		SkipErrorBelow: 0.1,
		Mode:           FeatEstimates,
		PlanCfg:        subplanModelConfig(),
		OpCfg:          OpModelConfig(),
	}
}

// subplanModelConfig returns the sub-plan model configuration: the paper's
// SVR, fit in log space because sub-plan occurrences pooled across
// templates span orders of magnitude in latency.
func subplanModelConfig() PlanModelConfig {
	cfg := DefaultPlanModelConfig()
	cfg.LogTarget = true
	return cfg
}

// IterationStat records one Algorithm-1 iteration for analysis (Figure 8
// plots TrainError against Iter per strategy).
type IterationStat struct {
	Iter       int
	Signature  string
	Size       int
	Occurrence int
	Accepted   bool
	TrainError float64
	// TestError is the held-out error after this iteration (only when
	// HybridConfig.EvalRecs is set).
	TestError float64
}

// hybridEval is one evaluation pass over the training data with the
// current model set: overall error plus per-signature uncovered frequency
// and average sub-plan prediction error (the bookkeeping Algorithm 1's
// candidate updates need).
type hybridEval struct {
	overall float64
	freq    map[string]int
	errSum  map[string]float64
	errCnt  map[string]int
}

func (e *hybridEval) avgErr(sig string) float64 {
	if e.errCnt[sig] == 0 {
		return 0
	}
	return e.errSum[sig] / float64(e.errCnt[sig])
}

// nodeEval is what one evaluation pass needs to know about a plan node:
// its signature, its operator count, whether the signature has a
// plan-level model (applicable or not) and what predictStep returns.
type nodeEval struct {
	node     *plan.Node
	sig      string
	size     int
	modelled bool
	st, rt   float64
}

// evalNodes appends one nodeEval per node of the tree under n, in
// pre-order, and returns n's. It is the exhaustive, bottom-up traversal
// Algorithm 1's bookkeeping needs: each node is visited once, children
// first, its signature assembled from theirs and its prediction handed
// theirs, so a tree costs time linear in its size where calling
// Signature and PredictNode on every node costs each subtree once per
// ancestor. The values are the ones PredictNode computes (a node under
// an applicable plan-level model is predicted although PredictNode would
// not descend to it; the prediction is a function of the subtree alone).
func (h *HybridPredictor) evalNodes(n *plan.Node, out *[]nodeEval) nodeEval {
	at := len(*out)
	*out = append(*out, nodeEval{})
	var kids [2]nodeEval
	var sigBuf [2]string
	sigs := sigBuf[:0]
	size := 1
	for i, c := range n.Children {
		e := h.evalNodes(c, out)
		sigs = append(sigs, e.sig)
		size += e.size
		if i < len(kids) {
			kids[i] = e
		}
	}
	e := nodeEval{node: n, sig: n.SignatureOver(sigs), size: size}
	e.st, e.rt, e.modelled = h.predictStep(n, e.sig, func() (st1, rt1, st2, rt2 float64) {
		return kids[0].st, kids[0].rt, kids[1].st, kids[1].rt
	})
	(*out)[at] = e
	return e
}

func evalHybrid(h *HybridPredictor, recs []*QueryRecord) *hybridEval {
	ev := &hybridEval{freq: map[string]int{}, errSum: map[string]float64{}, errCnt: map[string]int{}}
	var actual, predicted []float64
	var nodes []nodeEval // per-record scratch, reused
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		nodes = nodes[:0]
		root := h.evalNodes(r.Root, &nodes)
		actual = append(actual, r.Time)
		predicted = append(predicted, root.rt)
		// Per-node bookkeeping, in pre-order: occurrences strictly inside
		// a region covered by a plan-level model are consumed and no
		// longer count. Node k's subtree is nodes[k : k+size], so the
		// nodes under a modelled one are those before coveredEnd.
		coveredEnd := 0
		for k, e := range nodes {
			if k >= coveredEnd && k > 0 && e.size >= 2 {
				ev.freq[e.sig]++
				ev.errSum[e.sig] += mlearn.RelativeError(e.node.Act.RunTime, e.rt)
				ev.errCnt[e.sig]++
			}
			if e.modelled && k+e.size > coveredEnd {
				coveredEnd = k + e.size
			}
		}
	}
	ev.overall = mlearn.MeanRelativeError(actual, predicted)
	return ev
}

// trainSubplanModels fits the start/run plan-level model pair for one
// signature from its training occurrences.
func trainSubplanModels(occs []subplanOcc, mode FeatureMode, cfg PlanModelConfig) (*SubplanModels, error) {
	x := mlearn.NewMatrix(len(occs), NumPlanFeatures())
	st := make([]float64, len(occs))
	rt := make([]float64, len(occs))
	for i, o := range occs {
		copy(x.Row(i), PlanFeatures(o.node, mode))
		st[i], rt[i] = nodeTimes(o.node)
	}
	sm, err := TrainPlanModel(x, st, cfg)
	if err != nil {
		return nil, err
	}
	rm, err := TrainPlanModel(x, rt, cfg)
	if err != nil {
		return nil, err
	}
	return &SubplanModels{Start: sm, Run: rm}, nil
}

// TrainHybrid runs Algorithm 1: train operator models, then iteratively
// materialize plan-level models for sub-plans chosen by the configured
// strategy, keeping each model only if it improves training accuracy.
func TrainHybrid(recs []*QueryRecord, cfg HybridConfig) (*HybridPredictor, []IterationStat, error) {
	if err := validateRecords(recs); err != nil {
		return nil, nil, err
	}
	ops, err := TrainOperatorModels(recs, cfg.Mode, cfg.OpCfg)
	if err != nil {
		return nil, nil, err
	}
	h := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: cfg.Mode}
	idx := BuildSubplanIndex(recs)

	ev := evalHybrid(h, recs)
	rejected := map[string]bool{}
	var stats []IterationStat

	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if ev.overall <= cfg.TargetError {
			break
		}
		sig := h.nextCandidate(idx, ev, rejected, cfg)
		if sig == "" {
			break
		}
		occs := idx.occ[sig]
		stat := IterationStat{Iter: iter, Signature: sig, Size: idx.size[sig], Occurrence: len(occs)}
		if models, err := trainSubplanModels(occs, cfg.Mode, cfg.PlanCfg); err != nil {
			rejected[sig] = true
		} else {
			h.Plans[sig] = models
			if newEv := evalHybrid(h, recs); newEv.overall <= ev.overall-cfg.Epsilon {
				ev = newEv
				stat.Accepted = true
			} else {
				delete(h.Plans, sig)
				rejected[sig] = true
			}
		}
		stat.TrainError = ev.overall
		if stat.TestError, _, err = MeanRelativeError(cfg.EvalRecs, h.Predict); err != nil {
			return nil, nil, err
		}
		stats = append(stats, stat)
	}
	return h, stats, nil
}

// nextCandidate picks the next sub-plan to model per the strategy.
func (h *HybridPredictor) nextCandidate(idx *SubplanIndex, ev *hybridEval, rejected map[string]bool, cfg HybridConfig) string {
	type cand struct {
		sig  string
		size int
		freq int
		err  float64
	}
	var cands []cand
	for sig := range idx.occ {
		if rejected[sig] {
			continue
		}
		if _, ok := h.Plans[sig]; ok {
			continue
		}
		freq := ev.freq[sig]
		if freq < cfg.MinOccurrences {
			continue
		}
		avgErr := ev.avgErr(sig)
		if cfg.Strategy != ErrorBased && avgErr < cfg.SkipErrorBelow {
			continue
		}
		cands = append(cands, cand{sig: sig, size: idx.size[sig], freq: freq, err: avgErr})
	}
	if len(cands) == 0 {
		return ""
	}
	switch cfg.Strategy {
	case SizeBased:
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].size != cands[j].size {
				return cands[i].size < cands[j].size
			}
			if cands[i].freq != cands[j].freq {
				return cands[i].freq > cands[j].freq
			}
			return cands[i].sig < cands[j].sig
		})
	case FrequencyBased:
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].freq != cands[j].freq {
				return cands[i].freq > cands[j].freq
			}
			if cands[i].size != cands[j].size {
				return cands[i].size < cands[j].size
			}
			return cands[i].sig < cands[j].sig
		})
	default: // ErrorBased
		sort.Slice(cands, func(i, j int) bool {
			si := float64(cands[i].freq) * cands[i].err
			sj := float64(cands[j].freq) * cands[j].err
			if si > sj {
				return true
			}
			if si < sj {
				return false
			}
			return cands[i].sig < cands[j].sig
		})
	}
	return cands[0].sig
}
