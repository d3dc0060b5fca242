package qpp

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
	"qpp/internal/tpch"
)

// refOnlineModels is online model building as it stood before it became
// OnlinePredictor (kept as the oracle): the distinct proper sub-plans of
// the query, largest first, each decided through the string-keyed cache
// unless it has fewer than minOcc occurrences in occ, with the operator
// error taken through a hybrid predictor holding the models accepted so
// far.
func refOnlineModels(occ map[string][]subplanOcc, ops *OperatorLevelPredictor, queryRoot *plan.Node, minOcc int, memo *TrainMemo, cache map[string]*SubplanModels) *HybridPredictor {
	h := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: FeatEstimates}
	planCfg := subplanModelConfig(memo)

	type cand struct {
		sig  string
		size int
	}
	seen := map[string]bool{}
	var cands []cand
	queryRoot.WalkTree(func(n *plan.Node) {
		if sig := n.Signature(); n != queryRoot && n.Size() >= 2 && !seen[sig] {
			seen[sig] = true
			cands = append(cands, cand{sig: sig, size: n.Size()})
		}
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].sig < cands[j].sig
	})

	for _, c := range cands {
		if m, seen := cache[c.sig]; seen {
			if m != nil {
				h.Plans[c.sig] = m
			}
			continue
		}
		occs := occ[c.sig]
		if len(occs) < minOcc {
			continue
		}
		var act, opPred []float64
		for _, o := range occs {
			_, rt := predictSubplan(h, o.node)
			act = append(act, o.node.Act.RunTime)
			opPred = append(opPred, rt)
		}
		opErr := mlearn.MeanRelativeError(act, opPred)

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
			cache[c.sig] = nil
			continue
		}
		models, err := trainSubplanModels(occs, planCfg)
		if err != nil {
			cache[c.sig] = nil
			continue
		}
		h.Plans[c.sig] = models
		cache[c.sig] = models
	}
	return h
}

// splitHeldOut splits recs into the records of every other template and
// those of template heldOut.
func splitHeldOut(recs []*QueryRecord, heldOut int) (train, test []*QueryRecord) {
	for _, r := range recs {
		if r.Template == heldOut {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	return train, test
}

// TestOnlinePredictorMatchesReference holds out each of Fig. 9's twelve
// templates in turn on the Quick configuration's large workload, predicts
// its queries online with OnlinePredictor and with the reference, and
// requires the same prediction for every query to the bit and the same
// signatures accepted. It does so at the package's occurrence floor and
// at half of it, which decides more structures.
func TestOnlinePredictorMatchesReference(t *testing.T) {
	recs := quickLargeOpRecords(t)
	memo := new(TrainMemo) // both sides fit each model once
	ops := map[int]*OperatorLevelPredictor{}
	for _, heldOut := range tpch.DynamicWorkloadTemplates {
		train, _ := splitHeldOut(recs, heldOut)
		opCfg := OpModelConfig()
		opCfg.Memo = memo
		var err error
		if ops[heldOut], err = TrainOperatorModels(train, FeatEstimates, opCfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, minOcc := range []int{minOccurrences, minOccurrences / 2} {
		accepted := 0
		for _, heldOut := range tpch.DynamicWorkloadTemplates {
			accepted += requireSameOnline(t, recs, heldOut, ops[heldOut], minOcc, memo)
		}
		t.Logf("at least %d occurrences: %d signatures accepted over %d held-out templates", minOcc, accepted, len(tpch.DynamicWorkloadTemplates))
		if accepted == 0 {
			t.Fatalf("at least %d occurrences: no online model accepted, the reference's decisions went untested", minOcc)
		}
	}
}

// requireSameOnline predicts the queries of template heldOut online from
// the other records of recs and requires OnlinePredictor to match the
// reference. It returns how many signatures were accepted.
func requireSameOnline(t *testing.T, recs []*QueryRecord, heldOut int, ops *OperatorLevelPredictor, minOcc int, memo *TrainMemo) int {
	t.Helper()
	train, test := splitHeldOut(recs, heldOut)
	p := NewOnlinePredictor(train, ops, memo)
	p.minOccurrences = minOcc
	occ, _ := refSubplanIndex(train)
	cache := map[string]*SubplanModels{}
	for _, r := range test {
		got, gerr := p.Predict(r)
		want, werr := refOnlineModels(occ, ops, r.Root, minOcc, memo, cache).Predict(r)
		if gerr != werr || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("T%d held out, at least %d occurrences: %s predicted %v (%v), reference %v (%v)", heldOut, minOcc, r.SQL, got, gerr, want, werr)
		}
	}
	var gotSigs, wantSigs []string
	for id, m := range p.models {
		if m != nil {
			gotSigs = append(gotSigs, p.idx.sigs[id])
		}
	}
	for sig, m := range cache {
		if m != nil {
			wantSigs = append(wantSigs, sig)
		}
	}
	sort.Strings(gotSigs)
	sort.Strings(wantSigs)
	if strings.Join(gotSigs, "\n") != strings.Join(wantSigs, "\n") {
		t.Fatalf("T%d held out, at least %d occurrences: accepted\n%s\nreference\n%s", heldOut, minOcc, strings.Join(gotSigs, "\n"), strings.Join(wantSigs, "\n"))
	}
	return len(gotSigs)
}

// TestOnlinePredictorConcurrentUse shares one OnlinePredictor between two
// goroutines, which no figure driver does (Fig. 9 makes one per held-out
// template and predicts serially): both predict the same held-out
// queries, so they race to decide the same signatures. The race detector
// is the judge (scripts/ci.sh runs this under -race three more times); a
// fresh predictor's serial answers are the reference.
func TestOnlinePredictorConcurrentUse(t *testing.T) {
	train, test := splitHeldOut(quickLargeOpRecords(t), 5)
	ops, err := TrainOperatorModels(train, FeatEstimates, OpModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	newPredictor := func() *OnlinePredictor {
		p := NewOnlinePredictor(train, ops, nil)
		p.minOccurrences = 4 // the -short workload has six queries a template
		return p
	}
	predictAll := func(p *OnlinePredictor, out []float64) {
		for i, r := range test {
			v, err := p.Predict(r)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = v
		}
	}
	want := make([]float64, len(test))
	predictAll(newPredictor(), want)

	shared := newPredictor()
	var got [2][]float64
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]float64, len(test))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			predictAll(shared, got[g])
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	accepted := 0
	for _, m := range shared.models {
		if m != nil {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no sub-plan of the held-out template was accepted: the test shares nothing")
	}
	for g := range got {
		for i := range want {
			if math.Float64bits(got[g][i]) != math.Float64bits(want[i]) {
				t.Fatalf("goroutine %d, query %d: %v through the shared predictor, %v serially", g, i, got[g][i], want[i])
			}
		}
	}
}
