package qpp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
func quickLargeOpRecords(t testing.TB) []*QueryRecord {
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

// hybridEval is one reference evaluation pass over the training data:
// overall error plus per-signature uncovered frequency and sum and count
// of sub-plan prediction errors.
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

// predictSubplan is h's start/run estimate for the sub-plan rooted at n.
func predictSubplan(h *HybridPredictor, n *plan.Node) (st, rt float64) {
	var sig []byte
	return h.predictNode(n, &sig)
}

// refEvalHybrid is Algorithm 1's evaluation pass as it stood before it
// became one visit per node, kept as the oracle: a prediction of the
// root, then a pre-order walk that renders every node's signature again
// and predicts every uncovered sub-plan again.
func refEvalHybrid(h *HybridPredictor, recs []*QueryRecord) *hybridEval {
	ev := &hybridEval{freq: map[string]int{}, errSum: map[string]float64{}, errCnt: map[string]int{}}
	var actual, predicted []float64
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		_, rt := predictSubplan(h, r.Root)
		actual = append(actual, r.Time)
		predicted = append(predicted, rt)
		var walk func(n *plan.Node, covered bool)
		walk = func(n *plan.Node, covered bool) {
			sig := n.Signature()
			_, hasModel := h.Plans[sig]
			if !covered && n != r.Root && n.Size() >= 2 {
				ev.freq[sig]++
				_, prt := predictSubplan(h, n)
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

// eval is the trainer's current state in the reference's terms, overall
// its training error.
func (t *hybridTrainer) eval(overall float64) *hybridEval {
	ev := &hybridEval{overall: overall, freq: map[string]int{}, errSum: map[string]float64{}, errCnt: map[string]int{}}
	for id, f := range t.freq {
		if f > 0 {
			sig := t.idx.sigs[id]
			ev.freq[sig], ev.errSum[sig], ev.errCnt[sig] = f, t.errSum[id], f
		}
	}
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
// evaluated — no plan-level model, then each iteration's candidate tried
// on top of the ones accepted so far, then that candidate kept or taken
// out again — under all three strategies on the Quick configuration's
// large workload, and requires the trainer's cached evaluation to
// reproduce the reference's bookkeeping to the bit in every state.
func TestEvalHybridMatchesReference(t *testing.T) {
	recs := quickLargeOpRecords(t)
	memo := new(TrainMemo) // the replay asks for the models TrainHybrid trained

	for _, s := range []Strategy{ErrorBased, SizeBased, FrequencyBased} {
		hcfg := DefaultHybridConfig(s)
		hcfg.TargetError = 0 // all iterations
		hcfg.Memo = memo
		trained, stats, err := TrainHybrid(recs, hcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) < 5 {
			t.Fatalf("%s: only %d iterations to replay", s, len(stats))
		}
		h := &HybridPredictor{Ops: trained.Ops, Plans: map[string]*SubplanModels{}, Mode: FeatEstimates}
		tr := newHybridTrainer(h, recs)
		requireSameEval(t, s.String()+" before iteration 1", tr.eval(tr.overall()), refEvalHybrid(h, recs))
		accepted, rejected := 0, 0
		for _, st := range stats {
			at := fmt.Sprintf("%s iteration %d (%s)", s, st.Iter, st.Signature)
			id := tr.idx.ids[st.Signature]
			models, err := trainSubplanModels(tr.idx.occ[id], subplanModelConfig(memo))
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			overall := tr.try(id, models)
			h.Plans[st.Signature] = models
			want := refEvalHybrid(h, recs)
			delete(h.Plans, st.Signature)
			tr.tally() // TrainHybrid tallies only a kept candidate
			requireSameEval(t, at+" tried", tr.eval(overall), want)
			if st.Accepted {
				accepted++
				tr.keep(id)
				requireSameEval(t, at+" kept", tr.eval(tr.overall()), want)
				// The replay is in the state TrainHybrid kept.
				if math.Float64bits(overall) != math.Float64bits(st.TrainError) {
					t.Fatalf("%s: replayed training error %v, TrainHybrid recorded %v", at, overall, st.TrainError)
				}
			} else {
				rejected++
				tr.undo(id)
				tr.tally()
				requireSameEval(t, at+" restored", tr.eval(tr.overall()), refEvalHybrid(h, recs))
			}
		}
		if accepted == 0 || accepted != trained.NumPlanModels() {
			t.Fatalf("%s: replay accepted %d models, TrainHybrid kept %d", s, accepted, trained.NumPlanModels())
		}
		if rejected == 0 {
			t.Fatalf("%s: no rejected candidate to restore", s)
		}
	}
}

// refSubplanIndex is the sub-plan index as it stood before it was
// built from the trainer's flattening: every node's signature and size
// rendered from scratch, occurrences in record order and pre-order.
func refSubplanIndex(recs []*QueryRecord) (occ map[string][]subplanOcc, size map[string]int) {
	occ, size = map[string][]subplanOcc{}, map[string]int{}
	for _, r := range recs {
		if r.Root.HasSubqueryStructures() {
			continue
		}
		r.Root.WalkTree(func(n *plan.Node) {
			if n == r.Root || n.Size() < 2 {
				return
			}
			sig := n.Signature()
			occ[sig] = append(occ[sig], subplanOcc{rec: r, node: n})
			size[sig] = n.Size()
		})
	}
	return occ, size
}

// TestSubplanIndex checks the index Algorithm 1 and online modelling
// read: each occurrence is a proper sub-plan with its signature's
// structure and size, and, since queries from one template share plan
// structure, some signature occurs at least as often as a template has
// queries.
func TestSubplanIndex(t *testing.T) {
	recs := quickLargeOpRecords(t)
	idx, _ := flattenRecords(recs)
	perTemplate := map[int]int{}
	for _, r := range recs {
		perTemplate[r.Template]++
	}
	want := 0
	for _, n := range perTemplate {
		want = max(want, n)
	}
	indexed, most := 0, 0
	for id, occs := range idx.occ {
		for _, o := range occs {
			if o.node == o.rec.Root || o.node.Signature() != idx.sigs[id] || o.node.Size() != idx.size[id] || o.node.Size() < 2 {
				t.Fatalf("%s (size %d): an occurrence of size %d is %s", idx.sigs[id], idx.size[id], o.node.Size(), o.node.Signature())
			}
		}
		if len(occs) > 0 {
			indexed++
			most = max(most, len(occs))
		}
	}
	if indexed == 0 {
		t.Fatal("no subplans indexed")
	}
	if most < want {
		t.Fatalf("expected repeated subplans across a template of %d queries, max occurrence %d", want, most)
	}
}

// refTrainHybrid is TrainHybrid as it stood before its trainer cached
// predictions (kept as the oracle): the string-keyed index, a full
// evaluation of the training workload per candidate, and the pick by
// sorting every qualifying candidate.
func refTrainHybrid(recs []*QueryRecord, cfg HybridConfig) (*HybridPredictor, []IterationStat, error) {
	opCfg := OpModelConfig()
	opCfg.Memo = cfg.Memo
	ops, err := TrainOperatorModels(recs, FeatEstimates, opCfg)
	if err != nil {
		return nil, nil, err
	}
	planCfg := subplanModelConfig(cfg.Memo)
	h := &HybridPredictor{Ops: ops, Plans: map[string]*SubplanModels{}, Mode: FeatEstimates}
	occ, size := refSubplanIndex(recs)

	ev := refEvalHybrid(h, recs)
	rejected := map[string]bool{}
	var stats []IterationStat
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if ev.overall <= cfg.TargetError {
			break
		}
		sig := refNextCandidate(h, occ, size, ev, rejected, cfg)
		if sig == "" {
			break
		}
		stat := IterationStat{Iter: iter, Signature: sig, Size: size[sig], Occurrence: len(occ[sig])}
		if models, err := trainSubplanModels(occ[sig], planCfg); err != nil {
			rejected[sig] = true
		} else {
			h.Plans[sig] = models
			if newEv := refEvalHybrid(h, recs); newEv.overall <= ev.overall-acceptGain {
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

func refNextCandidate(h *HybridPredictor, occ map[string][]subplanOcc, size map[string]int, ev *hybridEval, rejected map[string]bool, cfg HybridConfig) string {
	type cand struct {
		sig  string
		size int
		freq int
		err  float64
	}
	var cands []cand
	for sig := range occ {
		if rejected[sig] {
			continue
		}
		if _, ok := h.Plans[sig]; ok {
			continue
		}
		freq := ev.freq[sig]
		if freq < minOccurrences {
			continue
		}
		avgErr := ev.avgErr(sig)
		if cfg.Strategy != ErrorBased && avgErr < wellPredicted {
			continue
		}
		cands = append(cands, cand{sig: sig, size: size[sig], freq: freq, err: avgErr})
	}
	if len(cands) == 0 {
		return ""
	}
	var less func(ci, cj cand) bool
	switch cfg.Strategy {
	case SizeBased:
		less = func(ci, cj cand) bool {
			if ci.size != cj.size {
				return ci.size < cj.size
			}
			if ci.freq != cj.freq {
				return ci.freq > cj.freq
			}
			return ci.sig < cj.sig
		}
	case FrequencyBased:
		less = func(ci, cj cand) bool {
			if ci.freq != cj.freq {
				return ci.freq > cj.freq
			}
			if ci.size != cj.size {
				return ci.size < cj.size
			}
			return ci.sig < cj.sig
		}
	default: // ErrorBased
		less = func(ci, cj cand) bool {
			si := float64(ci.freq) * ci.err
			sj := float64(cj.freq) * cj.err
			if si > sj {
				return true
			}
			if si < sj {
				return false
			}
			return ci.sig < cj.sig
		}
	}
	sort.Slice(cands, func(i, j int) bool { return less(cands[i], cands[j]) })
	return cands[0].sig
}

// TestTrainHybridMatchesReference runs TrainHybrid and the reference
// trainer under all three strategies, with a held-out workload evaluated
// every iteration (Fig. 8's shape) and without, and requires the same
// index, the same models kept, the same iterations to the bit and the
// same prediction for every record.
func TestTrainHybridMatchesReference(t *testing.T) {
	recs := quickLargeOpRecords(t)
	var train, test []*QueryRecord
	for i, r := range recs {
		if i%5 == 0 {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}

	idx, _ := flattenRecords(train)
	occ, size := refSubplanIndex(train)
	indexed := 0
	for _, occs := range idx.occ {
		if len(occs) > 0 {
			indexed++
		}
	}
	if indexed != len(occ) {
		t.Fatalf("index has %d signatures, reference %d", indexed, len(occ))
	}
	for sig, want := range occ {
		id, ok := idx.ids[sig]
		if !ok || idx.size[id] != size[sig] || len(idx.occ[id]) != len(want) {
			t.Fatalf("%s: indexed %v, size %d; reference %d occurrences, size %d", sig, ok, idx.size[id], len(want), size[sig])
		}
		for i, o := range want {
			if idx.occ[id][i] != o {
				t.Fatalf("%s: occurrence %d differs from the reference's", sig, i)
			}
		}
	}

	memo := new(TrainMemo) // both trainers fit each model once
	for _, s := range []Strategy{ErrorBased, SizeBased, FrequencyBased} {
		for _, heldOut := range [][]*QueryRecord{nil, test} {
			at := fmt.Sprintf("%s, %d held out", s, len(heldOut))
			cfg := DefaultHybridConfig(s)
			cfg.TargetError = 0 // all iterations
			cfg.EvalRecs = heldOut
			cfg.Memo = memo
			got, gotStats, err := TrainHybrid(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := refTrainHybrid(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotStats) != len(wantStats) {
				t.Fatalf("%s: %d iterations, reference %d", at, len(gotStats), len(wantStats))
			}
			for i, g := range gotStats {
				w := wantStats[i]
				if g.Iter != w.Iter || g.Signature != w.Signature || g.Size != w.Size || g.Occurrence != w.Occurrence || g.Accepted != w.Accepted ||
					math.Float64bits(g.TrainError) != math.Float64bits(w.TrainError) || math.Float64bits(g.TestError) != math.Float64bits(w.TestError) {
					t.Fatalf("%s: iteration %+v, reference %+v", at, g, w)
				}
			}
			if len(got.Plans) != len(want.Plans) {
				t.Fatalf("%s: %d plan models, reference %d", at, len(got.Plans), len(want.Plans))
			}
			for sig := range want.Plans {
				if _, ok := got.Plans[sig]; !ok {
					t.Fatalf("%s: reference kept %s, TrainHybrid did not", at, sig)
				}
			}
			for _, r := range recs {
				g, gerr := got.Predict(r)
				w, werr := want.Predict(r)
				if gerr != werr || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: %s predicted %v (%v), reference %v (%v)", at, r.SQL, g, gerr, w, werr)
				}
			}
		}
	}
}

// BenchmarkTrainHybrid times Algorithm 1 on the Quick configuration's
// large workload (-short selects its -short size) with every model
// already in the memo, so what it measures is the work around the fits:
// evaluating the training workload per candidate and picking the next.
func BenchmarkTrainHybrid(b *testing.B) {
	recs := quickLargeOpRecords(b)
	for _, s := range []Strategy{ErrorBased, SizeBased} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := DefaultHybridConfig(s)
			cfg.Memo = new(TrainMemo)
			if _, _, err := TrainHybrid(recs, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := TrainHybrid(recs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
