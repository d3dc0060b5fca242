package exec

import (
	"testing"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// takenArrays is how many scratch arrays the arena has handed out and
// not yet taken back.
func takenArrays(mem *queryArena) int {
	n := 0
	for _, l := range mem.scratchLists() {
		n += l.taken()
	}
	return n
}

// TestRescannedAggregateHoldsOneSetOfArrays runs a grouped and a plain
// aggregate as the inner side of a nested loop whose outer side has 10⁴
// rows, so each is rescanned with an outer row, and recomputed, 10⁴
// times: the arrays the arena has handed out must not grow past those
// of the first ten rescans. Taking fresh arrays per recomputing rescan
// grows them by 4 (plain) to 9 (grouped) per rescan.
func TestRescannedAggregateHoldsOneSetOfArrays(t *testing.T) {
	db := testDB(t)
	for _, agg := range []*plan.Node{
		{
			Op: plan.OpHashAggregate, Children: []*plan.Node{scanNode("t", 2)},
			Cols: make([]plan.Column, 2),
			Agg:  &plan.AggPayload{GroupBy: []plan.Scalar{icol(1)}, Aggs: []plan.AggSpec{{Func: plan.AggCount, K: types.KindInt}}},
		},
		{
			Op: plan.OpAggregate, Children: []*plan.Node{scanNode("t", 2)},
			Cols: make([]plan.Column, 1),
			Agg:  &plan.AggPayload{Aggs: []plan.AggSpec{{Func: plan.AggSum, Arg: icol(0), K: types.KindInt}}},
		},
	} {
		// 100 x 100 outer rows, each rescanning agg.
		outer := &plan.Node{
			Op: plan.OpNestedLoop, Join: &plan.JoinPayload{Type: plan.JoinInner}, Cols: make([]plan.Column, 4),
			Children: []*plan.Node{scanNode("t", 2), {Op: plan.OpMaterialize, Children: []*plan.Node{scanNode("t", 2)}, Cols: make([]plan.Column, 2)}},
		}
		root := &plan.Node{
			Op: plan.OpNestedLoop, Join: &plan.JoinPayload{Type: plan.JoinInner}, Cols: make([]plan.Column, 4+len(agg.Cols)),
			Children: []*plan.Node{outer, agg},
		}
		groups := 10
		if agg.Op == plan.OpAggregate {
			groups = 1
		}
		mem := new(queryArena)
		ctx := &execCtx{db: db, clock: noNoiseClock(), ectx: &plan.Ctx{}, mem: mem, compiled: map[plan.Scalar]evalFn{}}
		it, err := build(ctx, root, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		rows, warm := 0, 0
		for {
			_, ok, err := it.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows++
			if rows == 10*groups { // ten rescans in
				warm = takenArrays(mem)
			}
		}
		it.Close()
		if want := 100 * 100 * groups; rows != want {
			t.Fatalf("%s: %d rows, want %d", agg.Op, rows, want)
		}
		if agg.Act.Loops < 10_000 {
			t.Fatalf("%s: %d loops, want a rescan per outer row", agg.Op, agg.Act.Loops)
		}
		if end := takenArrays(mem); end != warm {
			t.Errorf("%s: %d arrays taken ten rescans in, %d after %d rescans", agg.Op, warm, end, agg.Act.Loops)
		}
	}
}
