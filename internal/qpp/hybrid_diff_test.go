package qpp

import (
	"math"
	"math/rand"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/mlearn"
	"qpp/internal/opt"
	"qpp/internal/parallel"
	"qpp/internal/plan"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
)

// quickLargeOpRecords executes what experiments.QuickConfig's large
// workload holds of the operator-level templates. This package's own
// tests cannot import workload (it imports qpp), so the few lines of
// workload.Build that matter are repeated: data from the seed, queries
// from seed+1, the i-th query's clock noise the i-th draw from seed+2.
func quickLargeOpRecords(t *testing.T) []*QueryRecord {
	t.Helper()
	sf, perTemplate := 0.01, 10
	if testing.Short() {
		sf, perTemplate = 0.003, 6
	}
	const seed, timeLimit = 42, 120
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: sf, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := tpch.GenWorkload(tpch.Templates, perTemplate, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	opLevel := map[int]bool{}
	for _, tpl := range tpch.OperatorLevelTemplates {
		opLevel[tpl] = true
	}
	noise := rand.New(rand.NewSource(seed + 2))
	seeds := make([]int64, len(queries))
	for i := range seeds {
		seeds[i] = noise.Int63()
	}
	recs := make([]*QueryRecord, len(queries))
	if err := parallel.ForEach(len(queries), 0, func(i int) error {
		q := queries[i]
		if !opLevel[q.Template] {
			return nil
		}
		node, err := opt.PlanSQL(db, q.SQL)
		if err != nil {
			return err
		}
		res, err := exec.Run(db, node, vclock.NewClock(vclock.DefaultProfile(), seeds[i]), exec.Options{TimeLimit: timeLimit})
		if err == exec.ErrTimeout {
			return nil
		}
		if err != nil {
			return err
		}
		recs[i] = &QueryRecord{Template: q.Template, SQL: q.SQL, Root: node, Time: res.Elapsed}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []*QueryRecord
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// refEvalHybrid is Algorithm 1's evaluation pass as it stood before it
// became one visit per node (ISSUE 15), kept as the oracle: PredictNode
// on the root, then a pre-order walk that renders every node's signature
// again and calls PredictNode again on every uncovered sub-plan.
func refEvalHybrid(h *HybridPredictor, recs []*QueryRecord) *hybridEval {
	ev := &hybridEval{freq: map[string]int{}, errSum: map[string]float64{}, errCnt: map[string]int{}}
	var actual, predicted []float64
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		_, rt := h.PredictNode(r.Root)
		actual = append(actual, r.Time)
		predicted = append(predicted, rt)
		var walk func(n *plan.Node, covered bool)
		walk = func(n *plan.Node, covered bool) {
			sig := n.Signature()
			_, hasModel := h.Plans[sig]
			if !covered && n != r.Root && n.Size() >= 2 {
				ev.freq[sig]++
				_, prt := h.PredictNode(n)
				ev.errSum[sig] += mlearn.RelativeError(n.Act.RunTime, prt)
				ev.errCnt[sig]++
			}
			for _, c := range n.Children {
				walk(c, covered || hasModel)
			}
		}
		walk(r.Root, false)
	}
	ev.overall = mlearn.MeanRelativeError(actual, predicted)
	return ev
}

func requireSameEval(t *testing.T, at string, got, want *hybridEval) {
	t.Helper()
	if math.Float64bits(got.overall) != math.Float64bits(want.overall) {
		t.Fatalf("%s: overall %v, reference %v", at, got.overall, want.overall)
	}
	if len(got.freq) != len(want.freq) || len(got.errSum) != len(want.errSum) || len(got.errCnt) != len(want.errCnt) {
		t.Fatalf("%s: %d/%d/%d signatures, reference %d/%d/%d", at,
			len(got.freq), len(got.errSum), len(got.errCnt), len(want.freq), len(want.errSum), len(want.errCnt))
	}
	for sig, f := range want.freq {
		if got.freq[sig] != f || got.errCnt[sig] != want.errCnt[sig] ||
			math.Float64bits(got.errSum[sig]) != math.Float64bits(want.errSum[sig]) {
			t.Fatalf("%s: %s: freq %d errSum %v errCnt %d, reference %d %v %d", at, sig,
				got.freq[sig], got.errSum[sig], got.errCnt[sig], f, want.errSum[sig], want.errCnt[sig])
		}
	}
}

// TestEvalHybridMatchesReference replays every state Algorithm 1
// evaluated — no plan-level model, then each iteration's candidate added
// on top of the ones accepted so far — under all three strategies on the
// Quick configuration's large workload, and requires the single-pass
// evaluation to reproduce the reference's bookkeeping to the bit.
func TestEvalHybridMatchesReference(t *testing.T) {
	recs := quickLargeOpRecords(t)
	idx := BuildSubplanIndex(recs)
	memo := new(TrainMemo) // the replay asks for the models TrainHybrid trained

	for _, s := range []Strategy{ErrorBased, SizeBased, FrequencyBased} {
		hcfg := DefaultHybridConfig(s)
		hcfg.TargetError = 0 // all iterations
		hcfg.PlanCfg.Memo = memo
		trained, stats, err := TrainHybrid(recs, hcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) < 5 {
			t.Fatalf("%s: only %d iterations to replay", s, len(stats))
		}
		h := &HybridPredictor{Ops: trained.Ops, Plans: map[string]*SubplanModels{}, Mode: hcfg.Mode}
		requireSameEval(t, s.String()+" before iteration 1", evalHybrid(h, recs), refEvalHybrid(h, recs))
		accepted := 0
		for _, st := range stats {
			models, err := trainSubplanModels(idx.occ[st.Signature], hcfg.Mode, hcfg.PlanCfg)
			if err != nil {
				t.Fatalf("%s iteration %d: %v", s, st.Iter, err)
			}
			h.Plans[st.Signature] = models
			got := evalHybrid(h, recs)
			requireSameEval(t, s.String()+" iteration "+st.Signature, got, refEvalHybrid(h, recs))
			if st.Accepted {
				accepted++
				// The replay is in the state TrainHybrid kept.
				if math.Float64bits(got.overall) != math.Float64bits(st.TrainError) {
					t.Fatalf("%s iteration %d: replayed training error %v, TrainHybrid recorded %v", s, st.Iter, got.overall, st.TrainError)
				}
			} else {
				delete(h.Plans, st.Signature)
			}
		}
		if accepted == 0 || accepted != trained.NumPlanModels() {
			t.Fatalf("%s: replay accepted %d models, TrainHybrid kept %d", s, accepted, trained.NumPlanModels())
		}
	}
}
