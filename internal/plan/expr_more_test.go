package plan

import (
	"strings"
	"testing"

	"qpp/internal/types"
)

func TestScalarStringRendering(t *testing.T) {
	cases := []struct {
		e    Scalar
		want string
	}{
		{col(0, types.KindInt), "$col0"},
		{&Col{Idx: 1, K: types.KindInt, Name: "l_orderkey"}, "l_orderkey"},
		{cint(5), "5"},
		{cstr("hi"), "'hi'"},
		{&Bin{Op: BAdd, L: cint(1), R: cint(2)}, "(1 + 2)"},
		{&Bin{Op: BAnd, L: &Const{V: types.Bool(true)}, R: &Const{V: types.Bool(false)}}, "(true and false)"},
		{&Not{E: cint(1)}, "(not 1)"},
		{&Neg{E: cint(1)}, "(-1)"},
		{&In{E: col(0, types.KindInt), List: []Scalar{cint(1), cint(2)}}, "($col0 in (1, 2))"},
		{&In{E: col(0, types.KindInt), List: []Scalar{cint(1)}, Negated: true}, "($col0 not in (1))"},
		{&Between{E: col(0, types.KindInt), Lo: cint(1), Hi: cint(9)}, "($col0 between 1 and 9)"},
		{&Between{E: col(0, types.KindInt), Lo: cint(1), Hi: cint(9), Negated: true}, "($col0 not between 1 and 9)"},
		{NewLike(col(0, types.KindString), "%x%", false), "($col0 like '%x%')"},
		{NewLike(col(0, types.KindString), "%x%", true), "($col0 not like '%x%')"},
		{&DateAdd{E: col(0, types.KindDate), N: 3, Unit: "month"}, "($col0 + interval '3' month)"},
		{&ExtractYear{E: col(0, types.KindDate)}, "extract(year from $col0)"},
		{&Substring{E: col(0, types.KindString), Start: 1, Len: 2}, "substring($col0 from 1 for 2)"},
		{&ParamRef{Idx: 3, K: types.KindInt}, "$3"},
		{&SubPlan{Idx: 0, Mode: SubPlanScalar}, "(SubPlan 0)"},
		{&SubPlan{Idx: 1, Mode: SubPlanExists}, "EXISTS(SubPlan 1)"},
		{&SubPlan{Idx: 2, Mode: SubPlanNotExists}, "NOT EXISTS(SubPlan 2)"},
		{&Case{Whens: []When{{Cond: &Const{V: types.Bool(true)}, Then: cint(1)}}, Else: cint(0)}, "case when true then 1 else 0 end"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q want %q", got, c.want)
		}
	}
}

func TestScalarKinds(t *testing.T) {
	if (&Not{E: cint(1)}).Kind() != types.KindBool {
		t.Fatal("not kind")
	}
	if (&Neg{E: cflt(1)}).Kind() != types.KindFloat {
		t.Fatal("neg kind")
	}
	if (&DateAdd{E: col(0, types.KindDate), N: 1, Unit: "day"}).Kind() != types.KindDate {
		t.Fatal("dateadd kind")
	}
	if (&ExtractYear{}).Kind() != types.KindInt {
		t.Fatal("extract kind")
	}
	if (&Substring{}).Kind() != types.KindString {
		t.Fatal("substring kind")
	}
	if (&In{}).Kind() != types.KindBool || (&Between{}).Kind() != types.KindBool {
		t.Fatal("predicate kinds")
	}
	sp := &SubPlan{Mode: SubPlanScalar, K: types.KindFloat}
	if sp.Kind() != types.KindFloat {
		t.Fatal("scalar subplan kind")
	}
	if (&SubPlan{Mode: SubPlanExists}).Kind() != types.KindBool {
		t.Fatal("exists subplan kind")
	}
	if (&ParamRef{K: types.KindDate}).Kind() != types.KindDate {
		t.Fatal("param kind")
	}
}

func TestNullPropagation(t *testing.T) {
	null := &Const{V: types.Null}
	row := Row{types.Null}
	if !(&Neg{E: null}).Eval(nil, nil).IsNull() {
		t.Fatal("neg null")
	}
	if !(&DateAdd{E: null, N: 1, Unit: "day"}).Eval(nil, nil).IsNull() {
		t.Fatal("dateadd null")
	}
	if !(&ExtractYear{E: null}).Eval(nil, nil).IsNull() {
		t.Fatal("extract null")
	}
	if !(&Substring{E: col(0, types.KindString), Start: 1, Len: 1}).Eval(nil, row).IsNull() {
		t.Fatal("substring null")
	}
	if !(&In{E: null, List: []Scalar{cint(1)}}).Eval(nil, nil).IsNull() {
		t.Fatal("in null")
	}
	if !(&Between{E: null, Lo: cint(1), Hi: cint(2)}).Eval(nil, nil).IsNull() {
		t.Fatal("between null")
	}
}

func TestSubPlanErrorPropagation(t *testing.T) {
	ctx := &Ctx{
		RunSubPlan: func(int, []types.Value) (types.Value, error) {
			return types.Null, errTest
		},
	}
	sp := &SubPlan{Idx: 0, Mode: SubPlanScalar}
	if v := sp.Eval(ctx, nil); !v.IsNull() {
		t.Fatal("failed subplan must yield NULL")
	}
	if ctx.Err != errTest {
		t.Fatal("error must be recorded on the context")
	}
	// Without a RunSubPlan hook the subplan degrades to NULL.
	if v := sp.Eval(&Ctx{}, nil); !v.IsNull() {
		t.Fatal("missing hook must yield NULL")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestCostAccumulation(t *testing.T) {
	in := &In{E: col(0, types.KindInt), List: []Scalar{cint(1), cint(2), cint(3)}}
	if c := in.Cost(); c.Ops != 3 {
		t.Fatalf("in cost %v", c)
	}
	like := NewLike(col(0, types.KindString), "%x%", false)
	if c := like.Cost(); c.Ops < 1 {
		t.Fatalf("like cost %v", c)
	}
	caseE := &Case{Whens: []When{{Cond: bin(BGt, col(0, types.KindInt), cint(1)), Then: cint(1)}}, Else: cint(0)}
	if c := caseE.Cost(); c.Ops != 2 {
		t.Fatalf("case cost %v", c)
	}
	sp := &SubPlan{Args: []Scalar{bin(BGt, col(0, types.KindInt), cint(1))}}
	if c := sp.Cost(); c.Ops != 2 {
		t.Fatalf("subplan cost %v", c)
	}
	btw := &Between{E: col(0, types.KindInt), Lo: cint(1), Hi: cint(2)}
	if c := btw.Cost(); c.Ops != 2 {
		t.Fatalf("between cost %v", c)
	}
	da := &DateAdd{E: col(0, types.KindDate), N: 1, Unit: "day"}
	if c := da.Cost(); c.Ops != 1 {
		t.Fatalf("dateadd cost %v", c)
	}
}

func TestExplainJoinVariants(t *testing.T) {
	mk := func(op OpType, jt JoinKind) *Node {
		l := &Node{Op: OpSeqScan, Table: "a"}
		r := &Node{Op: OpSeqScan, Table: "b"}
		n := &Node{Op: op, Join: &JoinPayload{Type: jt}, Children: []*Node{l, r}}
		if op != OpNestedLoop {
			n.Join.HashKeysL = []Scalar{col(0, types.KindInt)}
			n.Join.HashKeysR = []Scalar{col(0, types.KindInt)}
		}
		return n
	}
	out := Explain(mk(OpHashJoin, JoinLeft))
	if !strings.Contains(out, "Hash Left Join") {
		t.Fatalf("left join heading missing:\n%s", out)
	}
	if !strings.Contains(out, "Hash Cond") {
		t.Fatalf("hash cond missing:\n%s", out)
	}
	out = Explain(mk(OpMergeJoin, JoinInner))
	if !strings.Contains(out, "Merge Cond") {
		t.Fatalf("merge cond missing:\n%s", out)
	}
	nl := mk(OpNestedLoop, JoinLeft)
	nl.Join.Filter = bin(BEq, col(0, types.KindInt), col(1, types.KindInt))
	out = Explain(nl)
	if !strings.Contains(out, "Nested Loop Left Join") || !strings.Contains(out, "Join Filter") {
		t.Fatalf("nested loop rendering:\n%s", out)
	}
}

func TestExplainInitAndSubPlans(t *testing.T) {
	root := &Node{Op: OpSeqScan, Table: "t"}
	root.Root = &RootPayload{InitPlans: []*Node{{Op: OpAggregate}}, SubPlans: []*Node{{Op: OpAggregate}}}
	out := Explain(root)
	if !strings.Contains(out, "InitPlan 1") || !strings.Contains(out, "SubPlan 1") {
		t.Fatalf("init/sub plan sections missing:\n%s", out)
	}
}

func TestExplainGroupAndSortDetails(t *testing.T) {
	scan := &Node{Op: OpSeqScan, Table: "t", Cols: []Column{{Name: "a"}, {Name: "b"}}}
	agg := &Node{
		Op: OpHashAggregate, Children: []*Node{scan},
		Agg:  &AggPayload{GroupBy: []Scalar{&Col{Idx: 0, Name: "a"}}},
		Cols: []Column{{Name: "a"}, {Name: "n"}},
	}
	sortN := &Node{
		Op: OpSort, Children: []*Node{agg},
		Sort: &SortPayload{Keys: []SortKey{{Col: 1, Desc: true}}},
		Cols: agg.Cols,
	}
	out := Explain(sortN)
	if !strings.Contains(out, "Group Key: a") {
		t.Fatalf("group key missing:\n%s", out)
	}
	if !strings.Contains(out, "Sort Key: n DESC") {
		t.Fatalf("sort key missing:\n%s", out)
	}
}

func TestJoinKindString(t *testing.T) {
	if JoinInner.String() != "Inner" || JoinLeft.String() != "Left" ||
		JoinSemi.String() != "Semi" || JoinAnti.String() != "Anti" {
		t.Fatal("join kind names")
	}
}

func TestAggSpecString(t *testing.T) {
	if (AggSpec{Func: AggCount}).String() != "count(*)" {
		t.Fatal("count(*) rendering")
	}
	s := AggSpec{Func: AggSum, Arg: &Col{Idx: 0, Name: "x"}}
	if s.String() != "sum(x)" {
		t.Fatalf("sum rendering %q", s.String())
	}
}

func TestNodeStringAndWidth(t *testing.T) {
	n := &Node{Op: OpSeqScan, Table: "orders", Cols: []Column{{Width: 8}, {Width: 16}}}
	if n.String() != "Seq Scan on orders" {
		t.Fatalf("node string %q", n.String())
	}
	if n.Width() != 24 {
		t.Fatalf("width %v", n.Width())
	}
	j := &Node{Op: OpHashJoin}
	if j.String() != "Hash Join" {
		t.Fatalf("join string %q", j.String())
	}
}

// TestSameTextEdges covers the renderings SameText must follow that no
// template plan shows: unnamed columns, floats that print alike, constants
// of different kinds, a missing ELSE and a sub-plan's ignored arguments.
func TestSameTextEdges(t *testing.T) {
	for _, tc := range []struct {
		a, b Scalar
	}{
		{&Col{Idx: 3}, &Col{Idx: 3, K: types.KindInt}},
		{&Col{Idx: 3}, &Col{Idx: 4}},
		{&Col{Idx: 3}, &Col{Idx: 0, Name: "$col3"}},
		{&Col{Idx: 1, Name: "a"}, &Col{Idx: 2, Name: "a"}},
		{cflt(0.051), cflt(0.049)},
		{cflt(0.05), cflt(0.06)},
		{cint(5), cflt(5)},
		{cstr("5"), cint(5)},
		{&Const{V: types.Null}, &Const{V: types.Null}},
		{&Case{Whens: []When{{Cond: cint(1), Then: cint(2)}}}, &Case{Whens: []When{{Cond: cint(1), Then: cint(2)}}, Else: cint(3)}},
		{&SubPlan{Idx: 1, Args: []Scalar{cint(1)}}, &SubPlan{Idx: 1}},
		{&SubPlan{Idx: 1, Mode: SubPlanExists}, &SubPlan{Idx: 1}},
		{&Not{E: cint(1)}, &Neg{E: cint(1)}},
	} {
		want := tc.a.String() == tc.b.String()
		if got := SameText(tc.a, tc.b); got != want {
			t.Errorf("SameText(%s, %s) = %v, String equality %v", tc.a, tc.b, got, want)
		}
		if got := SameText(tc.b, tc.a); got != want {
			t.Errorf("SameText(%s, %s) = %v, String equality %v", tc.b, tc.a, got, want)
		}
	}
	if !SameText(nil, nil) || SameText(cint(1), nil) || SameText(nil, cint(1)) {
		t.Error("nil operands: equal to nil alone")
	}
}
