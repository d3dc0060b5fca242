package exec

// Differential tests for the expression compiler: compiled closures must
// return bit-identical types.Value results to the tree-walking Scalar.Eval
// interpreter — on every expression in every TPC-H template plan, on
// randomized rows covering NULL/NaN/huge-int edges, and on whole queries
// (where the virtual clock must also agree to the last bit, because
// compilation is required to change real time only).

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"qpp/internal/catalog"
	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

var diffDBOnce struct {
	sync.Once
	db  *storage.Database
	err error
}

func diffDB(t *testing.T) *storage.Database {
	t.Helper()
	diffDBOnce.Do(func() {
		diffDBOnce.db, diffDBOnce.err = tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 17})
	})
	if diffDBOnce.err != nil {
		t.Fatal(diffDBOnce.err)
	}
	return diffDBOnce.db
}

func allTemplates() []int {
	out := append([]int{}, tpch.Templates...)
	return append(out, tpch.ExtraTemplates...)
}

// nodeScalars lists the expression roots attached to a plan node.
func nodeScalars(n *plan.Node) []plan.Scalar {
	var out []plan.Scalar
	add := func(s plan.Scalar) {
		if s != nil {
			out = append(out, s)
		}
	}
	add(n.Filter)
	join := n.JoinOf()
	add(join.Filter)
	for _, e := range n.Projs() {
		add(e)
	}
	for _, e := range n.GroupBy() {
		add(e)
	}
	for _, a := range n.Aggs() {
		add(a.Arg)
	}
	for _, e := range join.HashKeysL {
		add(e)
	}
	for _, e := range join.HashKeysR {
		add(e)
	}
	for _, e := range n.LookupExprs() {
		add(e)
	}
	for _, e := range n.LookupConsts() {
		add(e)
	}
	return out
}

// genValue draws a random value of the given kind, with NULLs, NaN/Inf
// floats, >2^53 integers (which float64 cannot hold exactly but both
// evaluators must compare exactly), and wildcard-laden strings.
func genValue(r *rand.Rand, k types.Kind) types.Value {
	if r.Intn(8) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		switch r.Intn(4) {
		case 0:
			return types.Int(r.Int63n(20) - 10)
		case 1:
			return types.Int((int64(1) << 53) + r.Int63n(1<<10)) // float-precision edge
		default:
			return types.Int(r.Int63n(1 << 20))
		}
	case types.KindFloat:
		switch r.Intn(8) {
		case 0:
			return types.Float(math.NaN())
		case 1:
			return types.Float(math.Inf(1 - 2*r.Intn(2)))
		case 2:
			return types.Float(0)
		default:
			return types.Float((r.Float64() - 0.5) * 1e6)
		}
	case types.KindString:
		alphabet := []string{"", "a", "B", "foo", "BRASS", "%", "_", "\n", "Customer#1", "promo burnished"}
		s := alphabet[r.Intn(len(alphabet))] + alphabet[r.Intn(len(alphabet))]
		return types.Str(s)
	case types.KindDate:
		return types.Date(r.Int63n(20000))
	case types.KindBool:
		return types.Bool(r.Intn(2) == 0)
	default:
		return types.Null
	}
}

// exprShape captures the row/parameter slots an expression reads so the
// generator can synthesize compatible inputs.
type exprShape struct {
	cols   map[int]types.Kind
	params map[int]types.Kind
	width  int
}

func shapeOf(s plan.Scalar) exprShape {
	sh := exprShape{cols: map[int]types.Kind{}, params: map[int]types.Kind{}}
	plan.Inspect(s, func(e plan.Scalar) bool {
		switch x := e.(type) {
		case *plan.Col:
			sh.cols[x.Idx] = x.K
			if x.Idx+1 > sh.width {
				sh.width = x.Idx + 1
			}
		case *plan.ParamRef:
			sh.params[x.Idx] = x.K
		}
		return true
	})
	return sh
}

func (sh exprShape) genInputs(r *rand.Rand) (plan.Row, *plan.Ctx) {
	row := make(plan.Row, sh.width)
	for i := range row {
		row[i] = types.Null
	}
	for idx, k := range sh.cols {
		row[idx] = genValue(r, k)
	}
	maxParam := -1
	for idx := range sh.params {
		if idx > maxParam {
			maxParam = idx
		}
	}
	ctx := &plan.Ctx{}
	if maxParam >= 0 {
		ctx.Params = make([]types.Value, maxParam+1)
		for i := range ctx.Params {
			ctx.Params[i] = types.Null
		}
		for idx, k := range sh.params {
			ctx.Params[idx] = genValue(r, k)
		}
	}
	return row, ctx
}

// TestCompiledMatchesInterpretedExpressions compiles every expression (and
// every sub-expression) of every TPC-H template plan and checks it against
// the interpreter on randomized rows.
func TestCompiledMatchesInterpretedExpressions(t *testing.T) {
	db := diffDB(t)
	r := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	exprs := 0
	for _, tmpl := range allTemplates() {
		qs, err := tpch.GenWorkload([]int{tmpl}, 2, 99)
		if err != nil {
			t.Fatalf("t%d: %v", tmpl, err)
		}
		for _, q := range qs {
			root, err := opt.PlanSQL(db, q.SQL)
			if err != nil {
				t.Fatalf("t%d: plan: %v", tmpl, err)
			}
			root.Walk(func(n *plan.Node) {
				for _, e := range nodeScalars(n) {
					plan.Inspect(e, func(sub plan.Scalar) bool {
						if key := sub.String(); !seen[key] {
							seen[key] = true
							exprs++
							checkExprDifferential(t, r, sub)
						}
						return true
					})
				}
			})
		}
	}
	if exprs < 50 {
		t.Fatalf("suspiciously few distinct expressions exercised: %d", exprs)
	}
}

func checkExprDifferential(t *testing.T, r *rand.Rand, s plan.Scalar) {
	t.Helper()
	fn := compile(s)
	sh := shapeOf(s)
	for i := 0; i < 32; i++ {
		row, ctx := sh.genInputs(r)
		want := s.Eval(ctx, row)
		got := fn(ctx, row)
		if !types.Identical(got, want) {
			t.Fatalf("expression %s\nrow %v\ncompiled %#v\ninterpreted %#v", s, row, got, want)
		}
	}
}

// genSelPredicate draws a random scan-filter predicate over the two-column
// schema (col 0 of kind k, col 1 float): Col-op-Const in both operand
// orders, BETWEEN/IN/LIKE/IS NULL with their negated forms, and
// conjunctions with a float comparison — literals include NaN, ±Inf and
// the occasional NULL.
func genSelPredicate(r *rand.Rand, k types.Kind) plan.Scalar {
	col := &plan.Col{Idx: 0, K: k}
	cv := func() *plan.Const {
		v := genValue(r, k)
		if v.IsNull() { // keep NULL literals rare: they short-circuit everything
			v = genValue(r, k)
		}
		return &plan.Const{V: v}
	}
	ops := []plan.BinOp{plan.BEq, plan.BNe, plan.BLt, plan.BLe, plan.BGt, plan.BGe}
	switch r.Intn(5) {
	case 0:
		op := ops[r.Intn(len(ops))]
		if r.Intn(2) == 0 {
			return &plan.Bin{Op: op, L: col, R: cv(), K: types.KindBool}
		}
		return &plan.Bin{Op: op, L: cv(), R: col, K: types.KindBool}
	case 1:
		if k == types.KindString {
			return plan.NewLike(col, []string{"%a%", "B%", "%o", "a_c", "foo"}[r.Intn(5)], r.Intn(2) == 0)
		}
		return &plan.Between{E: col, Lo: cv(), Hi: cv(), Negated: r.Intn(2) == 0}
	case 2:
		list := make([]plan.Scalar, 1+r.Intn(3))
		for i := range list {
			list[i] = cv()
		}
		return &plan.In{E: col, List: list, Negated: r.Intn(2) == 0}
	case 3:
		return &plan.IsNull{E: col, Negated: r.Intn(2) == 0}
	default:
		fcol := &plan.Col{Idx: 1, K: types.KindFloat}
		fv := genValue(r, types.KindFloat)
		if fv.IsNull() {
			fv = types.Float(0)
		}
		lhs := genSelPredicate(r, k)
		rhs := &plan.Bin{Op: ops[r.Intn(len(ops))], L: fcol, R: &plan.Const{V: fv}, K: types.KindBool}
		return &plan.Bin{Op: plan.BAnd, L: lhs, R: rhs, K: types.KindBool}
	}
}

// genFloatExpr draws a random +−×÷ tree over float column 0, int column 1
// and numeric literals (division by zero and NULL propagation included).
func genFloatExpr(r *rand.Rand, depth int) plan.Scalar {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &plan.Col{Idx: 0, K: types.KindFloat}
		case 1:
			return &plan.Col{Idx: 1, K: types.KindInt}
		case 2:
			return &plan.Const{V: types.Float((r.Float64() - 0.5) * 100)}
		default:
			return &plan.Const{V: types.Int(r.Int63n(7))}
		}
	}
	ops := []plan.BinOp{plan.BAdd, plan.BSub, plan.BMul, plan.BDiv}
	return &plan.Bin{
		Op: ops[r.Intn(len(ops))],
		L:  genFloatExpr(r, depth-1),
		R:  genFloatExpr(r, depth-1),
		K:  types.KindFloat,
	}
}

// TestQuickCompiledGenerated feeds generated expressions — shapes the
// TPC-H templates never produce — through checkExprDifferential.
func TestQuickCompiledGenerated(t *testing.T) {
	kinds := []types.Kind{types.KindFloat, types.KindInt, types.KindDate, types.KindString}
	gens := []struct {
		name string
		gen  func(*rand.Rand) plan.Scalar
	}{
		{"predicate", func(r *rand.Rand) plan.Scalar { return genSelPredicate(r, kinds[r.Intn(len(kinds))]) }},
		{"float", func(r *rand.Rand) plan.Scalar { return genFloatExpr(r, 1+r.Intn(3)) }},
	}
	for _, g := range gens {
		gen := g.gen
		t.Run(g.name, func(t *testing.T) {
			cfg := &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(23))}
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				checkExprDifferential(t, r, gen(r))
				return true
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickCompiledBinary cross-checks compiled binary operators against
// the interpreter over testing/quick-generated operands in every Col/Const
// placement (which select different specialized fast paths).
func TestQuickCompiledBinary(t *testing.T) {
	numericKinds := []types.Kind{types.KindInt, types.KindFloat, types.KindDate}
	cfg := &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(11))}
	check := func(op plan.BinOp, l, r plan.Scalar, row plan.Row) error {
		b := &plan.Bin{Op: op, L: l, R: r, K: types.KindBool}
		want := b.Eval(nil, row)
		got := compile(b)(nil, row)
		if !types.Identical(got, want) {
			return fmt.Errorf("%s on %v: compiled %#v, interpreted %#v", b, row, got, want)
		}
		return nil
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lk := numericKinds[r.Intn(len(numericKinds))]
		rk := numericKinds[r.Intn(len(numericKinds))]
		if r.Intn(4) == 0 { // string comparisons pair string with string
			lk, rk = types.KindString, types.KindString
		}
		lv, rv := genValue(r, lk), genValue(r, rk)
		row := plan.Row{lv, rv}
		ops := []plan.BinOp{plan.BEq, plan.BNe, plan.BLt, plan.BLe, plan.BGt, plan.BGe}
		if lk != types.KindString {
			ops = append(ops, plan.BAdd, plan.BSub, plan.BMul, plan.BDiv)
		}
		op := ops[r.Intn(len(ops))]
		lc, rc := &plan.Col{Idx: 0, K: lk}, &plan.Col{Idx: 1, K: rk}
		shapes := [][2]plan.Scalar{
			{lc, rc},
			{lc, &plan.Const{V: rv}},
			{&plan.Const{V: lv}, rc},
			{&plan.Const{V: lv}, &plan.Const{V: rv}},
		}
		for _, sh := range shapes {
			if err := check(op, sh[0], sh[1], row); err != nil {
				t.Error(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompiledBoolOps checks AND/OR/NOT three-valued logic,
// including NULL operands, against the interpreter.
func TestQuickCompiledBoolOps(t *testing.T) {
	vals := []types.Value{types.Bool(true), types.Bool(false), types.Null}
	for _, lv := range vals {
		for _, rv := range vals {
			row := plan.Row{lv, rv}
			lc, rc := &plan.Col{Idx: 0, K: types.KindBool}, &plan.Col{Idx: 1, K: types.KindBool}
			for _, op := range []plan.BinOp{plan.BAnd, plan.BOr} {
				b := &plan.Bin{Op: op, L: lc, R: rc, K: types.KindBool}
				if got, want := compile(b)(nil, row), b.Eval(nil, row); !types.Identical(got, want) {
					t.Errorf("%s on %v: compiled %#v, interpreted %#v", b, row, got, want)
				}
			}
			n := &plan.Not{E: lc}
			if got, want := compile(n)(nil, row), n.Eval(nil, row); !types.Identical(got, want) {
				t.Errorf("%s on %v: compiled %#v, interpreted %#v", n, row, got, want)
			}
		}
	}
}

// TestCompiledNaNEdges pins the comparison fast paths to the
// interpreter's NaN semantics: types.Compare treats NaN as equal to any
// numeric (neither < nor > holds), so = matches and <> does not. The
// integers around 2^53 pin the exact int/float comparison the same way.
func TestCompiledNaNEdges(t *testing.T) {
	nan := math.NaN()
	col := &plan.Col{Idx: 0, K: types.KindFloat}
	operands := []types.Value{types.Float(nan), types.Float(1.5), types.Float(math.Inf(1)), types.Int(3),
		types.Int(1<<53 + 1), types.Float(1 << 53)}
	rows := []plan.Row{{types.Float(nan)}, {types.Float(2.5)}, {types.Int(1 << 53)}, {types.Int(1<<53 + 1)}}
	ops := []plan.BinOp{plan.BEq, plan.BNe, plan.BLt, plan.BLe, plan.BGt, plan.BGe}
	for _, c := range operands {
		for _, row := range rows {
			for _, op := range ops {
				for _, b := range []*plan.Bin{
					{Op: op, L: col, R: &plan.Const{V: c}, K: types.KindBool},
					{Op: op, L: &plan.Const{V: c}, R: col, K: types.KindBool},
				} {
					got, want := compile(b)(nil, row), b.Eval(nil, row)
					if !types.Identical(got, want) {
						t.Errorf("%s on %v: compiled %#v, interpreted %#v", b, row, got, want)
					}
				}
			}
		}
	}
}

// TestIntegersAbove2To53CompareExactly: 2^53 and 2^53+1 are one float64,
// yet two integers. A filter, IN, BETWEEN and ORDER BY must tell them
// apart, compiled and interpreted alike, exactly as a hash join on the
// key does.
func TestIntegersAbove2To53CompareExactly(t *testing.T) {
	const lo, hi = int64(1) << 53, int64(1)<<53 + 1
	schema := catalog.NewSchema()
	db := storage.NewDatabase(schema)
	for name, keys := range map[string][]int64{"big": {lo, hi}, "probe": {hi}} {
		if err := schema.AddTable(&catalog.Table{Name: name, Columns: []catalog.Column{{Name: "k", Type: types.KindInt}}}); err != nil {
			t.Fatal(err)
		}
		var rows [][]types.Value
		for _, k := range keys {
			rows = append(rows, []types.Value{types.Int(k)})
		}
		if err := db.Load(name, types.RowsOf(rows...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		sql  string
		want []int64
	}{
		{"select big.k from big, probe where big.k = probe.k", []int64{hi}},
		{"select k from big where k = 9007199254740993", []int64{hi}},
		{"select k from big where k < 9007199254740993", []int64{lo}},
		{"select k from big where k in (9007199254740993, 7)", []int64{hi}},
		{"select k from big where k between 9007199254740993 and 9007199254740999", []int64{hi}},
		{"select k from big order by k desc", []int64{hi, lo}},
	} {
		for _, interpret := range []bool{false, true} {
			node, err := opt.PlanSQL(db, tc.sql)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if strings.HasPrefix(tc.sql, "select big.k from big, probe") && !strings.Contains(plan.Explain(node), plan.OpHashJoin.String()) {
				t.Fatalf("the reference is not a hash join:\n%s", plan.Explain(node))
			}
			res, err := Run(db, node, noNoiseClock(), Options{Interpret: interpret})
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			var got []int64
			for _, r := range res.Rows {
				got = append(got, r[0].I())
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s (interpret=%v): rows %v, want %v", tc.sql, interpret, got, tc.want)
			}
		}
	}
}

// TestCompiledMatchesInterpretedQueries runs one instance of every TPC-H
// template twice — compiled and with the Options.Interpret escape hatch —
// and requires identical result rows and an identical virtual clock
// reading: the optimization must be invisible to everything but the
// wall clock.
func TestCompiledMatchesInterpretedQueries(t *testing.T) {
	db := diffDB(t)
	for _, tmpl := range allTemplates() {
		tmpl := tmpl
		t.Run(fmt.Sprintf("t%d", tmpl), func(t *testing.T) {
			qs, err := tpch.GenWorkload([]int{tmpl}, 1, 7)
			if err != nil {
				t.Fatal(err)
			}
			q := qs[0]
			run := func(interpret bool) *Result {
				node, err := opt.PlanSQL(db, q.SQL)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				clock := vclock.NewClock(vclock.DefaultProfile(), int64(500+tmpl))
				res, err := Run(db, node, clock, Options{Interpret: interpret})
				if err != nil {
					t.Fatalf("run (interpret=%v): %v", interpret, err)
				}
				return res
			}
			compiled := run(false)
			interpreted := run(true)
			if math.Float64bits(compiled.Elapsed) != math.Float64bits(interpreted.Elapsed) {
				t.Fatalf("virtual time diverged: compiled %.9f, interpreted %.9f",
					compiled.Elapsed, interpreted.Elapsed)
			}
			if len(compiled.Rows) != len(interpreted.Rows) {
				t.Fatalf("row count diverged: compiled %d, interpreted %d",
					len(compiled.Rows), len(interpreted.Rows))
			}
			for i := range compiled.Rows {
				if len(compiled.Rows[i]) != len(interpreted.Rows[i]) {
					t.Fatalf("row %d arity diverged", i)
				}
				for j := range compiled.Rows[i] {
					if !types.Identical(compiled.Rows[i][j], interpreted.Rows[i][j]) {
						t.Fatalf("row %d col %d diverged: compiled %#v, interpreted %#v",
							i, j, compiled.Rows[i][j], interpreted.Rows[i][j])
					}
				}
			}
		})
	}
}

// TestCompiledAllocatesNoMoreThanInterpreted is the allocation half of
// the compiled-vs-interpreted comparison on the Q1/Q6/Q18 hot paths (the
// ns/op half is the BenchmarkExprCompiled / BenchmarkExprInterpreted pair
// of the root package, which nothing enforces): compiling the plan's
// expressions to closures once per run must not cost more heap objects
// than evaluating the trees row by row. One planned node is re-run on a
// fresh clock, as the workload layer does, on an arena both sides have
// warmed (AllocsPerRun's own warm-up call grows it). Measured objects per
// run, compiled vs interpreted: Q1 58 vs 68, Q6 44 vs 46, Q18 213 vs 229
// (before the row arena and the slice-backed page cache: 689 vs 699, 669
// vs 671, 16029 vs 16045). The comparison is strict without the race
// detector only: with it sync.Pool.Put drops arenas at random, a Run that
// starts on a fresh one allocates its chunks, and Q6's margin of 2 objects
// would flake.
func TestCompiledAllocatesNoMoreThanInterpreted(t *testing.T) {
	db := diffDB(t)
	for _, tmpl := range []int{1, 6, 18} {
		node := planTemplate(t, db, tmpl)
		objects := func(interpret bool) float64 {
			return testing.AllocsPerRun(3, func() {
				clock := vclock.NewClock(vclock.DefaultProfile(), int64(500+tmpl))
				if _, err := Run(db, node, clock, Options{Interpret: interpret}); err != nil {
					t.Fatalf("t%d: run (interpret=%v): %v", tmpl, interpret, err)
				}
			})
		}
		compiled, interpreted := objects(false), objects(true)
		t.Logf("t%d: %.0f objects per run compiled, %.0f interpreted", tmpl, compiled, interpreted)
		if compiled > interpreted && !raceEnabled {
			t.Errorf("t%d: compiled run allocates %.0f objects, interpreted %.0f", tmpl, compiled, interpreted)
		}
	}
}

// TestCompiledLikeMatchers checks every LIKE pattern shape the compiler
// specializes (prefix, suffix, contains, multi-segment, underscore
// fallback, bare literal) against the interpreter's regexp.
func TestCompiledLikeMatchers(t *testing.T) {
	col := &plan.Col{Idx: 0, K: types.KindString}
	patterns := []string{
		"BRASS", "%BRASS", "BRASS%", "%BRASS%", "a%b%c", "%a%b%",
		"_", "a_c", "%a_c%", "", "%", "%%", "a%%b",
	}
	inputs := []types.Value{
		types.Str(""), types.Str("BRASS"), types.Str("xBRASSy"), types.Str("abc"),
		types.Str("aXbYc"), types.Str("a\nb\nc"), types.Str("aa"), types.Null,
		types.Str("ab"), types.Str("ba"), types.Str("a.c"),
	}
	for _, pat := range patterns {
		for _, negated := range []bool{false, true} {
			l := plan.NewLike(col, pat, negated)
			fn := compile(l)
			for _, in := range inputs {
				row := plan.Row{in}
				got, want := fn(nil, row), l.Eval(nil, row)
				if !types.Identical(got, want) {
					t.Errorf("LIKE %q (negated=%v) on %q: compiled %#v, interpreted %#v",
						pat, negated, in.S(), got, want)
				}
			}
		}
	}
}
