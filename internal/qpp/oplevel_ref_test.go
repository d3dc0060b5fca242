package qpp

import (
	"math"
	"reflect"
	"testing"

	"qpp/internal/mlearn"
	"qpp/internal/plan"
)

// opModel, fitOpModel and opModel.predict are the operator-model trainer
// as it stood before PlanModel became the package's only fitted model
// (ISSUE 23), kept verbatim as the oracle: no training range, no
// cross-validated error, no log target, feature selection from 12 rows.

type opModel struct {
	cols  []int
	model mlearn.Regressor
}

func fitOpModel(x *mlearn.Matrix, y []float64, cfg PlanModelConfig) (*opModel, error) {
	om := &opModel{}
	factory := cfg.factory()
	if cfg.FeatureSelection && x.Rows >= 12 {
		cols, _, err := mlearn.ForwardFeatureSelection(factory, x, y, mlearn.FeatureSelectionConfig{
			Folds: cfg.Folds, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		om.cols = cols
	} else {
		om.cols = make([]int, x.Cols)
		for i := range om.cols {
			om.cols[i] = i
		}
	}
	xt := mlearn.SelectColumns(x, om.cols)
	m := factory()
	if err := m.Fit(xt, y); err != nil {
		c := &mlearn.ConstantModel{}
		if err2 := c.Fit(xt, y); err2 != nil {
			return nil, err
		}
		om.model = c
		return om, nil
	}
	om.model = m
	return om, nil
}

func (om *opModel) predict(f []float64) float64 {
	out := om.model.Predict(mlearn.SelectRow(f, om.cols))
	if out < 0 {
		out = 0
	}
	return out
}

// opSamples is what TrainOperatorModels hands its trainer per operator
// type: Table-2 rows with observed child times, observed start and run
// times as targets.
type opSamples struct {
	rows   [][]float64
	st, rt []float64
}

func (s *opSamples) matrix() *mlearn.Matrix {
	x := mlearn.NewMatrix(len(s.rows), NumOpFeatures())
	for i, f := range s.rows {
		copy(x.Row(i), f)
	}
	return x
}

func collectOpSamples(recs []*QueryRecord, mode FeatureMode) map[plan.OpType]*opSamples {
	byOp := map[plan.OpType]*opSamples{}
	for _, r := range recs {
		r.Root.WalkTree(func(n *plan.Node) {
			var st1, rt1, st2, rt2 float64
			if len(n.Children) > 0 {
				st1, rt1 = nodeTimes(n.Children[0])
			}
			if len(n.Children) > 1 {
				st2, rt2 = nodeTimes(n.Children[1])
			}
			s := byOp[n.Op]
			if s == nil {
				s = &opSamples{}
				byOp[n.Op] = s
			}
			st, rt := nodeTimes(n)
			s.rows = append(s.rows, OpFeatures(n, mode, st1, rt1, st2, rt2))
			s.st = append(s.st, st)
			s.rt = append(s.rt, rt)
		})
	}
	return byOp
}

// TestOperatorModelsMatchReferenceTrainer: for every operator type of the
// test workload, the start and the run model TrainOperatorModels now gets
// from the shared trainer select the columns the reference trainer
// selects and predict every training row and every row of a held-out
// draw to the same bit, with and without a memo.
func TestOperatorModelsMatchReferenceTrainer(t *testing.T) {
	all := quickLargeOpRecords(t)
	var train, held []*QueryRecord
	for i, r := range all {
		if i%4 == 3 {
			held = append(held, r)
		} else {
			train = append(train, r)
		}
	}
	const mode = FeatEstimates
	trainSets, heldSets := collectOpSamples(train, mode), collectOpSamples(held, mode)

	direct := OpModelConfig()
	memoed := OpModelConfig()
	memoed.Memo = new(TrainMemo)
	selecting := 0
	for _, cfg := range []PlanModelConfig{direct, memoed, memoed} { // the third pass is all memo hits
		p, err := TrainOperatorModels(train, mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.start) != len(trainSets) || len(p.run) != len(trainSets) {
			t.Fatalf("%d start and %d run models for %d operator types", len(p.start), len(p.run), len(trainSets))
		}
		for op, set := range trainSets {
			x := set.matrix()
			for _, side := range []struct {
				name string
				y    []float64
				got  *PlanModel
			}{{"start", set.st, p.start[op]}, {"run", set.rt, p.run[op]}} {
				ref, err := fitOpModel(x, side.y, direct)
				if err != nil {
					t.Fatalf("%s %s: reference trainer: %v", op, side.name, err)
				}
				if side.got == nil {
					t.Fatalf("%s %s: no model", op, side.name)
				}
				if !reflect.DeepEqual(side.got.cols, ref.cols) {
					t.Fatalf("%s %s: selected %v, reference %v", op, side.name, side.got.cols, ref.cols)
				}
				if len(ref.cols) < x.Cols {
					selecting++
				}
				rows := set.rows
				if h := heldSets[op]; h != nil {
					rows = append(rows[:len(rows):len(rows)], h.rows...)
				}
				for i, f := range rows {
					got, want := side.got.Predict(f), ref.predict(f)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %s: row %d (of %d training rows) predicted %v, reference %v",
							op, side.name, i, len(set.rows), got, want)
					}
				}
				// What the reference never had: every training row is
				// inside the training range the model now carries.
				for i, f := range set.rows {
					if !side.got.InRange(f, 0) {
						t.Fatalf("%s %s: training row %d outside the model's own range", op, side.name, i)
					}
				}
			}
		}
	}
	if selecting == 0 {
		t.Fatal("no operator model ran feature selection: the comparison is vacuous")
	}
}
