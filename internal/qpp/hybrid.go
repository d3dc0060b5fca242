package qpp

import (
	"fmt"

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

// sigTable interns sub-plan signatures: equal signatures get one id, ids
// counting up from 0 in the order they are first seen.
type sigTable struct {
	ids  map[string]int32
	sigs []string
}

func newSigTable() sigTable { return sigTable{ids: map[string]int32{}} }

func (t *sigTable) intern(sig string) int32 {
	id, ok := t.ids[sig]
	if !ok {
		id = int32(len(t.sigs))
		t.ids[sig] = id
		t.sigs = append(t.sigs, sig)
	}
	return id
}

// nodeState is what predictStep returned for a node.
type nodeState struct {
	st, rt   float64
	modelled bool
}

// flatNode is one node of a flattened plan: a pre-order slice in which
// node k's subtree is entries k to k+size-1. kids holds the positions of
// the node's first two children, the two predictStep reads, 0 where there
// is none (position 0 is the root, no one's child).
type flatNode struct {
	node *plan.Node
	sig  int32
	size int32
	kids [2]int32
	nodeState
}

// flatten appends the tree under n to out in pre-order and returns the
// extended slice. It visits each node once, children first, assembling
// the node's signature from theirs (plan.Node.SignatureOver), so a tree
// costs time linear in its size where calling Signature and Size on
// every node costs each subtree once per ancestor.
func (t *sigTable) flatten(n *plan.Node, out []flatNode) []flatNode {
	at := len(out)
	out = append(out, flatNode{node: n, size: 1})
	var sigBuf [2]string
	sigs := sigBuf[:0]
	for i, c := range n.Children {
		k := len(out)
		out = t.flatten(c, out)
		if i < len(out[at].kids) {
			out[at].kids[i] = int32(k)
		}
		out[at].size += out[k].size
		sigs = append(sigs, t.sigs[out[k].sig])
	}
	out[at].sig = t.intern(n.SignatureOver(sigs))
	return out
}

// subplanIndex is the hash-based index over canonical sub-plan structures
// that Algorithm 1's get_plan_list builds: every proper sub-plan (two or
// more operators) of every training plan, keyed by structural signature.
// Its table interns every signature of the indexed plans, roots and
// single operators included; occ and size are indexed by id, occ empty
// for the signatures no proper sub-plan has.
type subplanIndex struct {
	sigTable
	occ  [][]subplanOcc
	size []int
}

// flatRec is one flattened training plan: its record and its nodes.
type flatRec struct {
	rec   *QueryRecord
	nodes []flatNode
}

// flattenRecords flattens the records without init-/sub-plan structures
// (the hybrid method extends operator-level prediction, which does not
// apply to them), in order, and indexes their proper sub-plans in record
// order and pre-order within a record.
func flattenRecords(recs []*QueryRecord) (*subplanIndex, []flatRec) {
	idx := &subplanIndex{sigTable: newSigTable()}
	var flat []flatRec
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		flat = append(flat, flatRec{rec: r, nodes: idx.flatten(r.Root, nil)})
	}
	idx.occ = make([][]subplanOcc, len(idx.sigs))
	idx.size = make([]int, len(idx.sigs))
	for _, f := range flat {
		for _, e := range f.nodes[1:] {
			if e.size >= 2 {
				idx.occ[e.sig] = append(idx.occ[e.sig], subplanOcc{rec: f.rec, node: e.node})
				idx.size[e.sig] = int(e.size)
			}
		}
	}
	return idx, flat
}

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
// sub-plan rooted at n, whose signature's materialised plan-level models
// are pm (nil when it has none), is answered by them when n's Table-1
// features lie within their widened training range, and by the operator
// models over its children's times otherwise. children is asked for
// those times only in the second case, so a traversal that computes them
// on demand never visits a node under an applicable model. modelled
// reports whether the signature has models at all, applicable or not.
// Nothing else in the package consults a model's training range to
// predict.
func (h *HybridPredictor) predictStep(n *plan.Node, pm *SubplanModels, children func() (st1, rt1, st2, rt2 float64)) (st, rt float64, modelled bool) {
	if pm != nil {
		var buf [mlearn.StackRow]float64
		var f []float64
		if k := NumPlanFeatures(); k <= len(buf) {
			f = planFeatures(buf[:k], n, h.Mode)
		} else {
			f = PlanFeatures(n, h.Mode)
		}
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
	return st, rt, pm != nil
}

// predictNode returns start/run estimates for the sub-plan rooted at n,
// top-down: children are predicted only where predictStep asks for them.
// Every signature it looks up is rendered into the one buffer *sig.
func (h *HybridPredictor) predictNode(n *plan.Node, sig *[]byte) (st, rt float64) {
	*sig = n.AppendSignature((*sig)[:0])
	st, rt, _ = h.predictStep(n, h.Plans[string(*sig)], func() (st1, rt1, st2, rt2 float64) {
		if len(n.Children) > 0 {
			st1, rt1 = h.predictNode(n.Children[0], sig)
		}
		if len(n.Children) > 1 {
			st2, rt2 = h.predictNode(n.Children[1], sig)
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
	sig := make([]byte, 0, 512) // grows if one plan's signature is longer
	_, rt := h.predictNode(rec.Root, &sig)
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

// ParseStrategy reads a strategy's command-line name: size, frequency or
// error.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "size":
		return SizeBased, nil
	case "frequency":
		return FrequencyBased, nil
	case "error":
		return ErrorBased, nil
	}
	return 0, fmt.Errorf("qpp: unknown hybrid strategy %q (want size, frequency or error)", name)
}

// HybridConfig tunes Algorithm 1.
type HybridConfig struct {
	Strategy Strategy
	// TargetError stops the loop once the training error drops below it.
	TargetError float64
	// MaxIters caps the iterations (Algorithm 1's termination fallback).
	MaxIters int
	// EvalRecs, when set, is a held-out workload whose error after every
	// iteration lands in IterationStat.TestError (Figure 8 plots this
	// curve per strategy). It is evaluated on the first iteration and
	// after each accepted one: a rejection leaves the models unchanged.
	EvalRecs []*QueryRecord
	// Memo, when non-nil, is the TrainMemo the operator and sub-plan
	// models train through (see PlanModelConfig.Memo).
	Memo *TrainMemo
}

// Algorithm 1's fixed settings, the paper's: a new sub-plan model is kept
// only when it lowers the training error by acceptGain (Algorithm 1's ε);
// sub-plans occurring fewer than minOccurrences times are not modelled,
// nor, under the size and frequency strategies, ones already predicted
// within wellPredicted relative error.
const (
	acceptGain     = 0.002
	minOccurrences = 8
	wellPredicted  = 0.1
)

// DefaultHybridConfig mirrors the paper's experiment settings.
func DefaultHybridConfig(s Strategy) HybridConfig {
	return HybridConfig{
		Strategy:    s,
		TargetError: 0.05,
		MaxIters:    30,
	}
}

// subplanModelConfig returns the sub-plan model configuration, training
// through memo: the paper's SVR, fit in log space because sub-plan
// occurrences pooled across templates span orders of magnitude in latency.
func subplanModelConfig(memo *TrainMemo) PlanModelConfig {
	cfg := DefaultPlanModelConfig()
	cfg.LogTarget = true
	cfg.Memo = memo
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

// hybridTrainer is TrainHybrid's view of its training plans, built once
// per call: the flattened records, per signature id the records that
// contain it and the models h.Plans holds under it, and Algorithm 1's
// bookkeeping. Every node's predictStep result is cached, so trying a
// candidate re-predicts only the records its signature occurs in, and
// rejecting it puts their saved states back.
type hybridTrainer struct {
	h      *HybridPredictor
	idx    *subplanIndex
	recs   []flatRec
	with   [][]int32        // per id, the positions in recs of the records containing it
	models []*SubplanModels // per id, h.Plans[its signature] or nil

	// actual and predicted are the records' times and the roots' cached
	// predictions, in record order.
	actual, predicted []float64
	// freq and errSum are, per id, the uncovered occurrences and the sum
	// of their relative errors (see tally).
	freq   []int
	errSum []float64

	saved []nodeState // the states try overwrote, for undo
}

func newHybridTrainer(h *HybridPredictor, recs []*QueryRecord) *hybridTrainer {
	idx, flat := flattenRecords(recs)
	n := len(idx.sigs)
	t := &hybridTrainer{
		h: h, idx: idx, recs: flat,
		with: make([][]int32, n), models: make([]*SubplanModels, n),
		actual: make([]float64, len(flat)), predicted: make([]float64, len(flat)),
		freq: make([]int, n), errSum: make([]float64, n),
	}
	for i, r := range flat {
		for _, e := range r.nodes {
			if w := t.with[e.sig]; len(w) == 0 || w[len(w)-1] != int32(i) {
				t.with[e.sig] = append(w, int32(i))
			}
		}
		t.actual[i] = r.rec.Time
		t.predict(i)
	}
	t.tally()
	return t
}

// predict re-predicts record i bottom-up through predictStep with the
// current models. Every node is predicted, including those predictNode
// would not descend to: a prediction is a function of the subtree alone.
func (t *hybridTrainer) predict(i int) {
	nodes := t.recs[i].nodes
	for k := len(nodes) - 1; k >= 0; k-- {
		e := &nodes[k]
		e.st, e.rt, e.modelled = t.h.predictStep(e.node, t.models[e.sig], func() (st1, rt1, st2, rt2 float64) {
			if c := e.kids[0]; c > 0 {
				st1, rt1 = nodes[c].st, nodes[c].rt
			}
			if c := e.kids[1]; c > 0 {
				st2, rt2 = nodes[c].st, nodes[c].rt
			}
			return st1, rt1, st2, rt2
		})
	}
	t.predicted[i] = nodes[0].rt
}

// overall is the training error: the mean relative error of the roots.
func (t *hybridTrainer) overall() float64 {
	return mlearn.MeanRelativeError(t.actual, t.predicted)
}

// tally recomputes freq and errSum from the cached predictions, in
// record order and pre-order within a record: occurrences strictly inside
// a region covered by a plan-level model are consumed and no longer
// count. Node k's subtree is nodes[k : k+size], so the nodes under a
// modelled one are those before coveredEnd.
func (t *hybridTrainer) tally() {
	clear(t.freq)
	clear(t.errSum)
	for _, r := range t.recs {
		coveredEnd := 0
		for k := range r.nodes {
			e := &r.nodes[k]
			end := k + int(e.size)
			if k >= coveredEnd && k > 0 && e.size >= 2 {
				t.freq[e.sig]++
				t.errSum[e.sig] += mlearn.RelativeError(e.node.Act.RunTime, e.rt)
			}
			if e.modelled && end > coveredEnd {
				coveredEnd = end
			}
		}
	}
}

// try puts m under signature id, re-predicts the records containing it
// and returns the training error. The bookkeeping is left as it was:
// keep recomputes it, undo takes the models out again.
func (t *hybridTrainer) try(id int32, m *SubplanModels) float64 {
	t.models[id] = m
	t.saved = t.saved[:0]
	for _, i := range t.with[id] {
		for _, e := range t.recs[i].nodes {
			t.saved = append(t.saved, e.nodeState)
		}
		t.predict(int(i))
	}
	return t.overall()
}

// keep accepts the models try put under id.
func (t *hybridTrainer) keep(id int32) {
	t.h.Plans[t.idx.sigs[id]] = t.models[id]
	t.tally()
}

// undo rejects the models try put under id, restoring the states of the
// records it re-predicted.
func (t *hybridTrainer) undo(id int32) {
	t.models[id] = nil
	saved := t.saved
	for _, i := range t.with[id] {
		nodes := t.recs[i].nodes
		for k := range nodes {
			nodes[k].nodeState = saved[k]
		}
		saved = saved[len(nodes):]
		t.predicted[i] = nodes[0].rt
	}
}

// trainSubplanModels fits the start/run plan-level model pair for one
// signature from the estimate features of its training occurrences.
func trainSubplanModels(occs []subplanOcc, cfg PlanModelConfig) (*SubplanModels, error) {
	x := mlearn.NewMatrix(len(occs), NumPlanFeatures())
	st := make([]float64, len(occs))
	rt := make([]float64, len(occs))
	for i, o := range occs {
		copy(x.Row(i), PlanFeatures(o.node, FeatEstimates))
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
	opCfg := OpModelConfig()
	opCfg.Memo = cfg.Memo
	ops, err := TrainOperatorModels(recs, FeatEstimates, opCfg)
	if err != nil {
		return nil, nil, err
	}
	planCfg := subplanModelConfig(cfg.Memo)
	h := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: FeatEstimates}
	t := newHybridTrainer(h, recs)

	overall := t.overall()
	rejected := make([]bool, len(t.idx.sigs))
	var stats []IterationStat
	var testErr float64

	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if overall <= cfg.TargetError {
			break
		}
		id := t.nextCandidate(rejected, cfg.Strategy)
		if id < 0 {
			break
		}
		occs := t.idx.occ[id]
		stat := IterationStat{Iter: iter, Signature: t.idx.sigs[id], Size: t.idx.size[id], Occurrence: len(occs)}
		if models, err := trainSubplanModels(occs, planCfg); err != nil {
			rejected[id] = true
		} else if newOverall := t.try(id, models); newOverall <= overall-acceptGain {
			t.keep(id)
			overall = newOverall
			stat.Accepted = true
		} else {
			t.undo(id)
			rejected[id] = true
		}
		stat.TrainError = overall
		if iter == 1 || stat.Accepted {
			if testErr, _, err = MeanRelativeError(cfg.EvalRecs, h.Predict); err != nil {
				return nil, nil, err
			}
		}
		stat.TestError = testErr
		stats = append(stats, stat)
	}
	return h, stats, nil
}

// nextCandidate picks the next sub-plan to model per the strategy, -1
// when none qualifies: among the indexed signatures neither rejected nor
// modelled with at least minOccurrences uncovered occurrences (and, but
// under ErrorBased, not already predicted within wellPredicted), the
// first in the strategy's order, ties broken by signature.
func (t *hybridTrainer) nextCandidate(rejected []bool, s Strategy) int32 {
	best := int32(-1)
	var bestErr float64
	for i, occs := range t.idx.occ {
		id := int32(i)
		if len(occs) == 0 || rejected[id] || t.models[id] != nil || t.freq[id] < minOccurrences {
			continue
		}
		avgErr := t.errSum[id] / float64(t.freq[id])
		if s != ErrorBased && avgErr < wellPredicted {
			continue
		}
		if best < 0 || t.before(s, id, avgErr, best, bestErr) {
			best, bestErr = id, avgErr
		}
	}
	return best
}

// before reports whether candidate i (average error ei) comes before
// candidate j (ej) in strategy s's order.
func (t *hybridTrainer) before(s Strategy, i int32, ei float64, j int32, ej float64) bool {
	si, sj := t.idx.size[i], t.idx.size[j]
	fi, fj := t.freq[i], t.freq[j]
	switch s {
	case SizeBased:
		if si != sj {
			return si < sj
		}
		if fi != fj {
			return fi > fj
		}
	case FrequencyBased:
		if fi != fj {
			return fi > fj
		}
		if si != sj {
			return si < sj
		}
	default: // ErrorBased
		// Two one-sided comparisons: floateq rejects != on floats.
		scoreI, scoreJ := float64(fi)*ei, float64(fj)*ej
		if scoreI > scoreJ {
			return true
		}
		if scoreI < scoreJ {
			return false
		}
	}
	return t.idx.sigs[i] < t.idx.sigs[j]
}
