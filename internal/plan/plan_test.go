package plan

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"qpp/internal/types"
)

func col(i int, k types.Kind) *Col       { return &Col{Idx: i, K: k} }
func cint(v int64) *Const                { return &Const{V: types.Int(v)} }
func cflt(v float64) *Const              { return &Const{V: types.Float(v)} }
func cstr(s string) *Const               { return &Const{V: types.Str(s)} }
func bin(op BinOp, l, r Scalar) *Bin     { return &Bin{Op: op, L: l, R: r, K: types.KindBool} }
func eval(e Scalar, row Row) types.Value { return e.Eval(&Ctx{}, row) }

func TestBinArithmetic(t *testing.T) {
	row := Row{types.Int(6), types.Float(2.5)}
	cases := []struct {
		e    Scalar
		want types.Value
	}{
		{&Bin{Op: BAdd, L: col(0, types.KindInt), R: cint(4), K: types.KindInt}, types.Int(10)},
		{&Bin{Op: BMul, L: col(1, types.KindFloat), R: cflt(2), K: types.KindFloat}, types.Float(5)},
		{&Bin{Op: BSub, L: col(0, types.KindInt), R: col(1, types.KindFloat), K: types.KindFloat}, types.Float(3.5)},
		{&Bin{Op: BDiv, L: cint(7), R: cint(2), K: types.KindFloat}, types.Float(3.5)},
		{&Bin{Op: BDiv, L: cint(7), R: cint(0), K: types.KindFloat}, types.Null},
	}
	for i, c := range cases {
		if got := eval(c.e, row); !types.Identical(got, c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestBinComparisons(t *testing.T) {
	row := Row{types.Int(5)}
	if !eval(bin(BLt, col(0, types.KindInt), cint(6)), row).IsTrue() {
		t.Fatal("5 < 6")
	}
	if eval(bin(BGe, col(0, types.KindInt), cint(6)), row).IsTrue() {
		t.Fatal("5 >= 6 must be false")
	}
	if !eval(bin(BNe, cstr("a"), cstr("b")), nil).IsTrue() {
		t.Fatal("'a' <> 'b'")
	}
	if v := eval(bin(BEq, &Const{V: types.Null}, cint(1)), nil); !v.IsNull() {
		t.Fatal("NULL = 1 must be NULL")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := &Const{V: types.Null}
	tru := &Const{V: types.Bool(true)}
	fls := &Const{V: types.Bool(false)}
	if v := eval(&Bin{Op: BAnd, L: null, R: fls}, nil); v.IsTrue() || v.IsNull() {
		t.Fatal("NULL AND FALSE = FALSE")
	}
	if v := eval(&Bin{Op: BAnd, L: null, R: tru}, nil); !v.IsNull() {
		t.Fatal("NULL AND TRUE = NULL")
	}
	if v := eval(&Bin{Op: BOr, L: null, R: tru}, nil); !v.IsTrue() {
		t.Fatal("NULL OR TRUE = TRUE")
	}
	if v := eval(&Bin{Op: BOr, L: null, R: fls}, nil); !v.IsNull() {
		t.Fatal("NULL OR FALSE = NULL")
	}
	if v := eval(&Not{E: null}, nil); !v.IsNull() {
		t.Fatal("NOT NULL = NULL")
	}
	if v := eval(&Not{E: fls}, nil); !v.IsTrue() {
		t.Fatal("NOT FALSE = TRUE")
	}
}

func TestDateArithmetic(t *testing.T) {
	d := types.MustDate("1994-01-01")
	row := Row{types.Date(d)}
	add := &DateAdd{E: col(0, types.KindDate), N: 3, Unit: "month"}
	if got := eval(add, row); got.String() != "1994-04-01" {
		t.Fatalf("got %v", got)
	}
	yr := &DateAdd{E: col(0, types.KindDate), N: 1, Unit: "year"}
	if got := eval(yr, row); got.String() != "1995-01-01" {
		t.Fatalf("got %v", got)
	}
	day := &DateAdd{E: col(0, types.KindDate), N: 90, Unit: "day"}
	if got := eval(day, row); got.I() != d+90 {
		t.Fatalf("got %v", got)
	}
	// Date + int days through Bin.
	plus := &Bin{Op: BAdd, L: col(0, types.KindDate), R: cint(10), K: types.KindDate}
	if got := eval(plus, row); got.Kind() != types.KindDate || got.I() != d+10 {
		t.Fatalf("got %v", got)
	}
	ext := &ExtractYear{E: col(0, types.KindDate)}
	if got := eval(ext, row); got.I() != 1994 {
		t.Fatalf("year %v", got)
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"%BRASS", "LARGE POLISHED BRASS", true},
		{"%BRASS", "LARGE POLISHED TIN", false},
		{"PROMO%", "PROMO BURNISHED COPPER", true},
		{"%special%requests%", "the special carefully requests wake", true},
		{"%special%requests%", "the requests special wake", false},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%x.y%", "hello x.y world", true},
		{"%x.y%", "hello xzy world", false}, // '.' must be literal
	}
	for _, c := range cases {
		l := NewLike(col(0, types.KindString), c.pattern, false)
		got := eval(l, Row{types.Str(c.input)}).IsTrue()
		if got != c.want {
			t.Errorf("LIKE %q on %q = %v want %v", c.pattern, c.input, got, c.want)
		}
		neg := NewLike(col(0, types.KindString), c.pattern, true)
		if eval(neg, Row{types.Str(c.input)}).IsTrue() == c.want {
			t.Errorf("NOT LIKE %q on %q should invert", c.pattern, c.input)
		}
	}
	if v := eval(NewLike(col(0, types.KindString), "%x%", false), Row{types.Null}); !v.IsNull() {
		t.Fatal("NULL LIKE must be NULL")
	}
}

// TestLikeCompilesOnFirstUse: the regexp is built by whichever evaluation
// needs it first, also when several goroutines evaluate one Like at once
// (run under -race), and a copied Like shares it.
func TestLikeCompilesOnFirstUse(t *testing.T) {
	l := NewLike(col(0, types.KindString), "a_c%", false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !l.Matches("abcd") || l.Matches("ac") {
				t.Error("a_c% matched wrongly")
			}
		}()
	}
	wg.Wait()
	copied := *l
	if !eval(&copied, Row{types.Str("aXc")}).IsTrue() || copied.re.re != l.re.re {
		t.Error("a copied Like lost its compiled regexp")
	}
}

func TestCaseInBetweenSubstring(t *testing.T) {
	row := Row{types.Int(5), types.Str("13-555")}
	caseE := &Case{
		Whens: []When{{Cond: bin(BGt, col(0, types.KindInt), cint(3)), Then: cint(1)}},
		Else:  cint(0), K: types.KindInt,
	}
	if got := eval(caseE, row); got.I() != 1 {
		t.Fatalf("case %v", got)
	}
	caseNoElse := &Case{Whens: []When{{Cond: bin(BGt, col(0, types.KindInt), cint(99)), Then: cint(1)}}, K: types.KindInt}
	if got := eval(caseNoElse, row); !got.IsNull() {
		t.Fatal("case without match must be NULL")
	}
	in := &In{E: col(0, types.KindInt), List: []Scalar{cint(4), cint(5)}}
	if !eval(in, row).IsTrue() {
		t.Fatal("in")
	}
	notIn := &In{E: col(0, types.KindInt), List: []Scalar{cint(4)}, Negated: true}
	if !eval(notIn, row).IsTrue() {
		t.Fatal("not in")
	}
	btw := &Between{E: col(0, types.KindInt), Lo: cint(1), Hi: cint(5)}
	if !eval(btw, row).IsTrue() {
		t.Fatal("between inclusive")
	}
	sub := &Substring{E: col(1, types.KindString), Start: 1, Len: 2}
	if got := eval(sub, row); got.S() != "13" {
		t.Fatalf("substring %v", got)
	}
	subOOB := &Substring{E: col(1, types.KindString), Start: 99, Len: 2}
	if got := eval(subOOB, row); got.S() != "" {
		t.Fatal("substring out of bounds")
	}
}

func TestParamAndSubPlan(t *testing.T) {
	ctx := &Ctx{Params: []types.Value{types.Int(42)}}
	p := &ParamRef{Idx: 0, K: types.KindInt}
	if got := p.Eval(ctx, nil); got.I() != 42 {
		t.Fatalf("param %v", got)
	}
	if got := p.Eval(&Ctx{}, nil); !got.IsNull() {
		t.Fatal("missing param must be NULL")
	}
	calls := 0
	ctx.RunSubPlan = func(idx int, args []types.Value) (types.Value, error) {
		calls++
		if idx != 3 || args[0].I() != 42 {
			t.Fatalf("subplan call idx=%d args=%v", idx, args)
		}
		return types.Float(7), nil
	}
	sp := &SubPlan{Idx: 3, Args: []Scalar{p}, Mode: SubPlanScalar, K: types.KindFloat}
	if got := sp.Eval(ctx, nil); got.F() != 7 {
		t.Fatalf("subplan %v", got)
	}
	if calls != 1 {
		t.Fatal("subplan should be invoked once")
	}
}

func TestExprCostCountsNumericOps(t *testing.T) {
	// sum-style expression over decimals must report numeric ops.
	e := &Bin{Op: BMul, L: col(0, types.KindFloat),
		R: &Bin{Op: BSub, L: cflt(1), R: col(1, types.KindFloat), K: types.KindFloat},
		K: types.KindFloat}
	c := e.Cost()
	if c.Ops != 2 || c.NumericOps != 2 {
		t.Fatalf("cost %+v", c)
	}
	intE := &Bin{Op: BAdd, L: col(0, types.KindInt), R: cint(1), K: types.KindInt}
	if ic := intE.Cost(); ic.NumericOps != 0 {
		t.Fatalf("int add should have no numeric ops: %+v", ic)
	}
}

func testTree() *Node {
	scan1 := &Node{Op: OpSeqScan, Table: "lineitem"}
	scan2 := &Node{Op: OpSeqScan, Table: "orders"}
	hash := &Node{Op: OpHash, Children: []*Node{scan2}}
	join := &Node{Op: OpHashJoin, Children: []*Node{scan1, hash}}
	agg := &Node{Op: OpHashAggregate, Children: []*Node{join}}
	return &Node{Op: OpSort, Children: []*Node{agg}}
}

func TestNodeSizeWalkSignature(t *testing.T) {
	root := testTree()
	if root.Size() != 6 {
		t.Fatalf("size %d", root.Size())
	}
	var ops []OpType
	root.WalkTree(func(n *Node) { ops = append(ops, n.Op) })
	if len(ops) != 6 || ops[0] != OpSort {
		t.Fatalf("walk %v", ops)
	}
	sig := root.Signature()
	if !strings.Contains(sig, "[lineitem]") || !strings.Contains(sig, "Hash Join") {
		t.Fatalf("sig %s", sig)
	}
	// Same structure, same signature; different table, different signature.
	other := testTree()
	if other.Signature() != sig {
		t.Fatal("identical trees must share signature")
	}
	other.Children[0].Children[0].Children[0].Table = "customer"
	if other.Signature() == sig {
		t.Fatal("different scan target must change signature")
	}
	// Assembled bottom-up from the children's signatures, every node's
	// signature is the one rendered from the node itself.
	var bottomUp func(n *Node) string
	bottomUp = func(n *Node) string {
		var kids []string
		for _, c := range n.Children {
			kids = append(kids, bottomUp(c))
		}
		got := n.SignatureOver(kids)
		if want := n.Signature(); got != want {
			t.Fatalf("SignatureOver gives %q, Signature %q", got, want)
		}
		return got
	}
	bottomUp(root)
}

func TestSubPlanListAndSubqueryStructures(t *testing.T) {
	root := testTree()
	subs := root.SubPlanList()
	if len(subs) != 6 {
		t.Fatalf("subplans %d", len(subs))
	}
	if root.HasSubqueryStructures() {
		t.Fatal("plain tree has no subquery structures")
	}
	root.Root = &RootPayload{InitPlans: []*Node{{Op: OpAggregate}}}
	if !root.HasSubqueryStructures() {
		t.Fatal("initplan must be detected")
	}
}

func TestExplainRendering(t *testing.T) {
	root := testTree()
	root.Est = Estimates{StartupCost: 1, TotalCost: 10, Rows: 100, Width: 8}
	out := Explain(root)
	for _, want := range []string{"Sort", "HashAggregate", "Hash Join", "Seq Scan on lineitem", "cost=1.00..10.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	root.Act = Actuals{Executed: true, StartTime: 0.5, RunTime: 2.5, Rows: 42, Loops: 1}
	out = Explain(root)
	if !strings.Contains(out, "actual time=0.5000..2.5000") {
		t.Fatalf("explain analyze missing actuals:\n%s", out)
	}
}

// TestPlanNodeSize keeps a plan node in the 256-byte size class: each
// operator kind's payload hangs off its own pointer, so a Seq Scan or a
// Hash node — most of a plan — carries none of the others' fields.
func TestPlanNodeSize(t *testing.T) {
	if size := reflect.TypeOf(Node{}).Size(); size > 256 {
		t.Fatalf("plan.Node is %d bytes, want at most 256", size)
	}
}
