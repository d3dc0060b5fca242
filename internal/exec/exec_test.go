package exec

import (
	"testing"

	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

// testDB builds a two-table database:
//
//	t(a int, b int): rows (i, i%10) for i in 0..99
//	u(a int, s text): rows (i*2, "x<i>") for i in 0..49  (pk on a)
func testDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(schema.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: types.KindInt}, {Name: "b", Type: types.KindInt},
		},
		PrimaryKey: []int{0},
	}))
	must(schema.AddTable(&catalog.Table{
		Name: "u",
		Columns: []catalog.Column{
			{Name: "a", Type: types.KindInt}, {Name: "s", Type: types.KindString},
		},
		PrimaryKey: []int{0},
	}))
	db := storage.NewDatabase(schema)
	var trows, urows [][]types.Value
	for i := 0; i < 100; i++ {
		trows = append(trows, []types.Value{types.Int(int64(i)), types.Int(int64(i % 10))})
	}
	for i := 0; i < 50; i++ {
		urows = append(urows, []types.Value{types.Int(int64(i * 2)), types.Str("x")})
	}
	must(db.Load("t", types.RowsOf(trows...)))
	must(db.Load("u", types.RowsOf(urows...)))
	return db
}

func noNoiseClock() *vclock.Clock {
	p := vclock.DefaultProfile()
	p.NoiseSigma = 0
	return vclock.NewClock(p, 1)
}

func icol(i int) *plan.Col { return &plan.Col{Idx: i, K: types.KindInt} }

func run(t *testing.T, db *storage.Database, root *plan.Node) *Result {
	t.Helper()
	res, err := Run(db, root, noNoiseClock(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func scanNode(table string, ncols int) *plan.Node {
	cols := make([]plan.Column, ncols)
	return &plan.Node{Op: plan.OpSeqScan, Table: table, Cols: cols}
}

func TestSeqScanWithFilter(t *testing.T) {
	db := testDB(t)
	n := scanNode("t", 2)
	n.Filter = &plan.Bin{Op: plan.BLt, L: icol(0), R: &plan.Const{V: types.Int(10)}, K: types.KindBool}
	res := run(t, db, n)
	if len(res.Rows) != 10 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if n.Act.Rows != 10 || !n.Act.Executed || n.Act.Loops != 1 {
		t.Fatalf("actuals %+v", n.Act)
	}
	if n.Act.Pages == 0 || n.Act.RunTime <= 0 {
		t.Fatalf("pages/time not recorded: %+v", n.Act)
	}
	if n.Act.StartTime <= 0 || n.Act.StartTime > n.Act.RunTime {
		t.Fatalf("start/run times inconsistent: %+v", n.Act)
	}
	if res.Elapsed != n.Act.RunTime {
		t.Fatalf("elapsed %v vs runtime %v", res.Elapsed, n.Act.RunTime)
	}
}

func hashJoinTree(jt plan.JoinKind) (*plan.Node, *plan.Node, *plan.Node) {
	left := scanNode("t", 2)
	right := scanNode("u", 2)
	hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{right}, Cols: right.Cols}
	op := plan.OpHashJoin
	switch jt {
	case plan.JoinSemi:
		op = plan.OpHashSemiJoin
	case plan.JoinAnti:
		op = plan.OpHashAntiJoin
	}
	join := &plan.Node{
		Op:       op,
		Children: []*plan.Node{left, hash},
		Cols:     make([]plan.Column, 4),
		Join:     &plan.JoinPayload{Type: jt, HashKeysL: []plan.Scalar{icol(0)}, HashKeysR: []plan.Scalar{icol(0)}},
	}
	if jt == plan.JoinSemi || jt == plan.JoinAnti {
		join.Cols = make([]plan.Column, 2)
	}
	return join, left, right
}

func TestHashJoinInner(t *testing.T) {
	db := testDB(t)
	join, left, _ := hashJoinTree(plan.JoinInner)
	res := run(t, db, join)
	if len(res.Rows) != 50 {
		t.Fatalf("rows %d want 50", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].I() != r[2].I() {
			t.Fatalf("join key mismatch %v", r)
		}
	}
	if left.Act.Rows != 100 {
		t.Fatalf("probe side rows %v", left.Act.Rows)
	}
}

func TestHashJoinLeft(t *testing.T) {
	db := testDB(t)
	join, _, _ := hashJoinTree(plan.JoinLeft)
	join.Join.Type = plan.JoinLeft
	res := run(t, db, join)
	if len(res.Rows) != 100 {
		t.Fatalf("left join rows %d want 100", len(res.Rows))
	}
	nulls := 0
	for _, r := range res.Rows {
		if r[2].IsNull() {
			nulls++
		}
	}
	if nulls != 50 {
		t.Fatalf("null-extended rows %d want 50", nulls)
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	db := testDB(t)
	semi, _, _ := hashJoinTree(plan.JoinSemi)
	res := run(t, db, semi)
	if len(res.Rows) != 50 {
		t.Fatalf("semi rows %d", len(res.Rows))
	}
	anti, _, _ := hashJoinTree(plan.JoinAnti)
	res = run(t, db, anti)
	if len(res.Rows) != 50 {
		t.Fatalf("anti rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].I()%2 == 0 {
			t.Fatalf("anti join leaked matching row %v", r)
		}
	}
}

func TestNestedLoopWithMaterialize(t *testing.T) {
	db := testDB(t)
	outer := scanNode("t", 2)
	outer.Filter = &plan.Bin{Op: plan.BLt, L: icol(0), R: &plan.Const{V: types.Int(5)}, K: types.KindBool}
	innerScan := scanNode("u", 2)
	mat := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{innerScan}, Cols: innerScan.Cols}
	join := &plan.Node{
		Op:       plan.OpNestedLoop,
		Children: []*plan.Node{outer, mat},
		Cols:     make([]plan.Column, 4),
		Join:     &plan.JoinPayload{Filter: &plan.Bin{Op: plan.BEq, L: icol(0), R: icol(2), K: types.KindBool}},
	}
	res := run(t, db, join)
	if len(res.Rows) != 3 { // t.a in {0,2,4}
		t.Fatalf("rows %d want 3", len(res.Rows))
	}
	// The materialize must rescan without re-running its child scan.
	if innerScan.Act.Loops != 1 {
		t.Fatalf("inner scan loops %d want 1 (materialized)", innerScan.Act.Loops)
	}
	if mat.Act.Loops != 6 { // open + one rescan per outer row
		t.Fatalf("materialize loops %d want 6", mat.Act.Loops)
	}
	// Paper semantics: materialize start-time (fill) ≪ run-time (all passes).
	if !(mat.Act.StartTime < mat.Act.RunTime) {
		t.Fatalf("materialize start %v run %v", mat.Act.StartTime, mat.Act.RunTime)
	}
}

func TestNestedLoopIndexScan(t *testing.T) {
	db := testDB(t)
	outer := scanNode("t", 2)
	inner := &plan.Node{
		Op: plan.OpIndexScan, Table: "u",
		Cols:   make([]plan.Column, 2),
		Lookup: &plan.LookupPayload{Exprs: []plan.Scalar{icol(0)}}, // u.a = t.a via outer row
	}
	join := &plan.Node{
		Op: plan.OpNestedLoop, Join: &plan.JoinPayload{Type: plan.JoinInner},
		Children: []*plan.Node{outer, inner},
		Cols:     make([]plan.Column, 4),
	}
	res := run(t, db, join)
	if len(res.Rows) != 50 {
		t.Fatalf("rows %d want 50", len(res.Rows))
	}
	if inner.Act.Loops != 101 { // open + 100 rescans
		t.Fatalf("index scan loops %d", inner.Act.Loops)
	}
}

func TestAggregateHashAndHaving(t *testing.T) {
	db := testDB(t)
	scan := scanNode("t", 2)
	agg := &plan.Node{
		Op:       plan.OpHashAggregate,
		Children: []*plan.Node{scan},
		Cols:     make([]plan.Column, 2),
		Agg:      &plan.AggPayload{GroupBy: []plan.Scalar{icol(1)}, Aggs: []plan.AggSpec{{Func: plan.AggCount, K: types.KindInt}}},
		// HAVING count(*) > 0 is trivially true; use group key filter.
		Filter: &plan.Bin{Op: plan.BLt, L: icol(0), R: &plan.Const{V: types.Int(5)}, K: types.KindBool},
	}
	res := run(t, db, agg)
	if len(res.Rows) != 5 {
		t.Fatalf("groups %d want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].I() != 10 {
			t.Fatalf("group count %v", r)
		}
	}
}

func TestAggregatePlainOnEmptyInput(t *testing.T) {
	db := testDB(t)
	scan := scanNode("t", 2)
	scan.Filter = &plan.Bin{Op: plan.BLt, L: icol(0), R: &plan.Const{V: types.Int(-1)}, K: types.KindBool}
	agg := &plan.Node{
		Op:       plan.OpAggregate,
		Children: []*plan.Node{scan},
		Cols:     make([]plan.Column, 2),
		Agg: &plan.AggPayload{Aggs: []plan.AggSpec{
			{Func: plan.AggCount, K: types.KindInt},
			{Func: plan.AggSum, Arg: icol(0), K: types.KindInt},
		}},
	}
	res := run(t, db, agg)
	if len(res.Rows) != 1 {
		t.Fatalf("rows %d want 1", len(res.Rows))
	}
	if res.Rows[0][0].I() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg %v", res.Rows[0])
	}
}

func TestSortAndLimit(t *testing.T) {
	db := testDB(t)
	scan := scanNode("t", 2)
	sortN := &plan.Node{
		Op: plan.OpSort, Children: []*plan.Node{scan}, Cols: scan.Cols,
		Sort: &plan.SortPayload{Keys: []plan.SortKey{{Col: 1, Desc: true}, {Col: 0, Desc: false}}},
	}
	lim := &plan.Node{Op: plan.OpLimit, Children: []*plan.Node{sortN}, Cols: scan.Cols, LimitN: 3}
	res := run(t, db, lim)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if res.Rows[0][1].I() != 9 || res.Rows[0][0].I() != 9 {
		t.Fatalf("order wrong: %v", res.Rows[0])
	}
	if res.Rows[1][0].I() != 19 {
		t.Fatalf("order wrong: %v", res.Rows[1])
	}
}

func TestGroupAggregateSorted(t *testing.T) {
	db := testDB(t)
	scan := scanNode("t", 2)
	sortN := &plan.Node{
		Op: plan.OpSort, Children: []*plan.Node{scan}, Cols: scan.Cols,
		Sort: &plan.SortPayload{Keys: []plan.SortKey{{Col: 1}}},
	}
	agg := &plan.Node{
		Op: plan.OpGroupAgg, Children: []*plan.Node{sortN},
		Cols: make([]plan.Column, 2),
		Agg:  &plan.AggPayload{GroupBy: []plan.Scalar{icol(1)}, Aggs: []plan.AggSpec{{Func: plan.AggSum, Arg: icol(0), K: types.KindInt}}},
	}
	res := run(t, db, agg)
	if len(res.Rows) != 10 {
		t.Fatalf("groups %d", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].I()
	}
	if total != 99*100/2 {
		t.Fatalf("sum of sums %d", total)
	}
}

func TestInitPlanAndParams(t *testing.T) {
	db := testDB(t)
	// InitPlan: select max(a) from u  => 98
	ipScan := scanNode("u", 2)
	ip := &plan.Node{
		Op: plan.OpAggregate, Children: []*plan.Node{ipScan},
		Cols: make([]plan.Column, 1),
		Agg:  &plan.AggPayload{Aggs: []plan.AggSpec{{Func: plan.AggMax, Arg: icol(0), K: types.KindInt}}},
	}
	// Main: select * from t where a > $0
	scan := scanNode("t", 2)
	scan.Filter = &plan.Bin{Op: plan.BGt, L: icol(0), R: &plan.ParamRef{Idx: 0, K: types.KindInt}, K: types.KindBool}
	scan.Root = &plan.RootPayload{InitPlans: []*plan.Node{ip}, InitPlanSlots: []int{0}, NumParams: 1}
	res := run(t, db, scan)
	if len(res.Rows) != 1 || res.Rows[0][0].I() != 99 {
		t.Fatalf("rows %v", res.Rows)
	}
	if !ip.Act.Executed {
		t.Fatal("init plan not instrumented")
	}
}

func TestSubPlanCorrelated(t *testing.T) {
	db := testDB(t)
	// SubPlan: select count(*) from u where u.a = $0
	spScan := scanNode("u", 2)
	spScan.Filter = &plan.Bin{Op: plan.BEq, L: icol(0), R: &plan.ParamRef{Idx: 0, K: types.KindInt}, K: types.KindBool}
	sp := &plan.Node{
		Op: plan.OpAggregate, Children: []*plan.Node{spScan},
		Cols: make([]plan.Column, 1),
		Agg:  &plan.AggPayload{Aggs: []plan.AggSpec{{Func: plan.AggCount, K: types.KindInt}}},
	}
	// Main: select * from t where (subplan(t.a)) = 1   (t.a even and < 100)
	scan := scanNode("t", 2)
	scan.Filter = &plan.Bin{
		Op: plan.BEq,
		L:  &plan.SubPlan{Idx: 0, Args: []plan.Scalar{icol(0)}, Mode: plan.SubPlanScalar, K: types.KindInt},
		R:  &plan.Const{V: types.Int(1)},
		K:  types.KindBool,
	}
	scan.Root = &plan.RootPayload{SubPlans: []*plan.Node{sp}, SubPlanArgSlots: [][]int{{0}}, NumParams: 1}
	res := run(t, db, scan)
	if len(res.Rows) != 50 {
		t.Fatalf("rows %d want 50", len(res.Rows))
	}
	if sp.Act.Loops != 100 { // one execution per outer row
		t.Fatalf("subplan loops %d", sp.Act.Loops)
	}
}

func TestMergeJoin(t *testing.T) {
	db := testDB(t)
	left := &plan.Node{Op: plan.OpIndexScan, Table: "t", Cols: make([]plan.Column, 2)}
	right := &plan.Node{Op: plan.OpIndexScan, Table: "u", Cols: make([]plan.Column, 2)}
	join := &plan.Node{
		Op:       plan.OpMergeJoin,
		Children: []*plan.Node{left, right},
		Cols:     make([]plan.Column, 4),
		Join:     &plan.JoinPayload{MergeKeysL: []int{0}, MergeKeysR: []int{0}},
	}
	res := run(t, db, join)
	if len(res.Rows) != 50 {
		t.Fatalf("merge join rows %d want 50", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].I() != r[2].I() {
			t.Fatalf("key mismatch %v", r)
		}
	}
}

func TestTimeLimit(t *testing.T) {
	db := testDB(t)
	n := scanNode("t", 2)
	_, err := Run(db, n, noNoiseClock(), Options{TimeLimit: 1e-12})
	if err != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestProjectResult(t *testing.T) {
	db := testDB(t)
	scan := scanNode("t", 2)
	proj := &plan.Node{
		Op: plan.OpResult, Children: []*plan.Node{scan},
		Cols: make([]plan.Column, 1),
		Proj: &plan.ProjPayload{Exprs: []plan.Scalar{
			&plan.Bin{Op: plan.BMul, L: icol(0), R: &plan.Const{V: types.Int(2)}, K: types.KindInt},
		}},
	}
	res := run(t, db, proj)
	if len(res.Rows) != 100 || res.Rows[5][0].I() != 10 {
		t.Fatalf("projection wrong: %v", res.Rows[5])
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	db := testDB(t)
	join1, _, _ := hashJoinTree(plan.JoinInner)
	r1 := run(t, db, join1)
	join2, _, _ := hashJoinTree(plan.JoinInner)
	r2 := run(t, db, join2)
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("virtual time must be deterministic: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
}
