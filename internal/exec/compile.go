package exec

// Expression compilation: each plan.Scalar tree is lowered once per
// execution into a specialized Go closure, so the per-row path is a
// single indirect call instead of a recursive interface-dispatched tree
// walk. Compilation changes real time only, never virtual time: the
// clock is charged from precomputed Cost() values by the callers, with
// the same calls and the same arguments as the interpreted path, and a
// compiled closure returns bit-identical types.Value results to the
// interpreter's Eval (the differential suite in compile_test.go and the
// golden trace snapshots both pin this down). Options.Interpret is the
// escape hatch that pins the tree-walking interpreter.

import (
	"strings"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// evalFn is a compiled scalar expression: it has the same signature and
// the same value semantics as plan.Scalar.Eval.
type evalFn func(*plan.Ctx, plan.Row) types.Value

// compiledFilter pairs a compiled predicate with its precomputed
// expression cost, replacing the per-call Scalar.Cost() tree walks the
// operators used to do.
type compiledFilter struct {
	fn   evalFn
	cost plan.ExprCost
}

// eval applies the filter, charging its CPU cost — the same CPUOps call,
// with the same arguments, that the interpreted path made.
func (f compiledFilter) eval(ctx *execCtx, row plan.Row) bool {
	if f.fn == nil {
		return true
	}
	ctx.clock.CPUOps(f.cost.Ops, f.cost.NumericOps)
	return f.fn(ctx.ectx, row).IsTrue()
}

// compileFilter lowers a node filter (nil-safe) with its cost.
func (c *execCtx) compileFilter(s plan.Scalar) compiledFilter {
	if s == nil {
		return compiledFilter{}
	}
	return compiledFilter{fn: c.compileScalar(s), cost: s.Cost()}
}

// compileScalar lowers s once per execution: results are cached per
// Scalar node so sub-plan re-executions (which rebuild their iterator
// trees per invocation) reuse the closures. With Options.Interpret the
// interpreter's Eval method itself is the evaluation function.
func (c *execCtx) compileScalar(s plan.Scalar) evalFn {
	if s == nil {
		return nil
	}
	if c.compiled == nil {
		return s.Eval
	}
	if f, ok := c.compiled[s]; ok {
		return f
	}
	f := compile(s)
	c.compiled[s] = f
	return f
}

// compileScalars lowers a slice of expressions.
func (c *execCtx) compileScalars(es []plan.Scalar) []evalFn {
	if len(es) == 0 {
		return nil
	}
	out := make([]evalFn, len(es))
	for i, e := range es {
		out[i] = c.compileScalar(e)
	}
	return out
}

// isFoldable reports whether s depends on nothing but literals, so it
// can be evaluated once at compile time. Col, ParamRef and SubPlan are
// the only leaves that read execution state.
func isFoldable(s plan.Scalar) bool {
	switch x := s.(type) {
	case *plan.Const:
		return true
	case *plan.Bin:
		return isFoldable(x.L) && isFoldable(x.R)
	case *plan.Not:
		return isFoldable(x.E)
	case *plan.Neg:
		return isFoldable(x.E)
	case *plan.Case:
		for _, w := range x.Whens {
			if !isFoldable(w.Cond) || !isFoldable(w.Then) {
				return false
			}
		}
		return x.Else == nil || isFoldable(x.Else)
	case *plan.In:
		for _, e := range x.List {
			if !isFoldable(e) {
				return false
			}
		}
		return isFoldable(x.E)
	case *plan.Between:
		return isFoldable(x.E) && isFoldable(x.Lo) && isFoldable(x.Hi)
	case *plan.Like:
		return isFoldable(x.E)
	case *plan.DateAdd:
		return isFoldable(x.E)
	case *plan.ExtractYear:
		return isFoldable(x.E)
	case *plan.Substring:
		return isFoldable(x.E)
	case *plan.IsNull:
		return isFoldable(x.E)
	default:
		return false
	}
}

// compile lowers one expression tree into a closure. Every case mirrors
// the corresponding Eval method exactly — including the NULL, NaN, and
// mixed-kind corner cases — so compiled and interpreted evaluation are
// value-for-value interchangeable.
func compile(s plan.Scalar) evalFn {
	if _, isConst := s.(*plan.Const); !isConst && isFoldable(s) {
		v := s.Eval(nil, nil) // constant folding via the interpreter itself
		return func(*plan.Ctx, plan.Row) types.Value { return v }
	}
	switch x := s.(type) {
	case *plan.Const:
		v := x.V
		return func(*plan.Ctx, plan.Row) types.Value { return v }
	case *plan.Col:
		idx := x.Idx
		return func(_ *plan.Ctx, row plan.Row) types.Value { return row[idx] }
	case *plan.ParamRef:
		idx := x.Idx
		return func(ctx *plan.Ctx, _ plan.Row) types.Value {
			if ctx == nil || idx >= len(ctx.Params) {
				return types.Null
			}
			return ctx.Params[idx]
		}
	case *plan.Bin:
		return compileBin(x)
	case *plan.Not:
		e := compile(x.E)
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v := e(ctx, row)
			if v.Kind == types.KindNull {
				return types.Null
			}
			return types.Bool(!v.IsTrue())
		}
	case *plan.Neg:
		e := compile(x.E)
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v := e(ctx, row)
			switch v.Kind {
			case types.KindInt:
				return types.Int(-v.I())
			case types.KindFloat:
				return types.Float(-v.F())
			default:
				return types.Null
			}
		}
	case *plan.Case:
		conds := make([]evalFn, len(x.Whens))
		thens := make([]evalFn, len(x.Whens))
		for i, w := range x.Whens {
			conds[i] = compile(w.Cond)
			thens[i] = compile(w.Then)
		}
		var els evalFn
		if x.Else != nil {
			els = compile(x.Else)
		}
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			for i, c := range conds {
				if c(ctx, row).IsTrue() {
					return thens[i](ctx, row)
				}
			}
			if els != nil {
				return els(ctx, row)
			}
			return types.Null
		}
	case *plan.In:
		return compileIn(x)
	case *plan.Between:
		return compileBetween(x)
	case *plan.Like:
		e := compile(x.E)
		match := likeMatcher(x)
		neg := x.Negated
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v := e(ctx, row)
			if v.Kind == types.KindNull {
				return types.Null
			}
			return types.Bool(match(v.S()) != neg)
		}
	case *plan.DateAdd:
		e := compile(x.E)
		n, unit := x.N, x.Unit
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v := e(ctx, row)
			if v.Kind == types.KindNull {
				return types.Null
			}
			switch unit {
			case "day":
				return types.Date(v.I() + int64(n))
			case "month":
				return types.Date(types.AddMonths(v.I(), n))
			default:
				return types.Date(types.AddYears(v.I(), n))
			}
		}
	case *plan.ExtractYear:
		e := compile(x.E)
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v := e(ctx, row)
			if v.Kind == types.KindNull {
				return types.Null
			}
			return types.Int(int64(types.Year(v.I())))
		}
	case *plan.Substring:
		e := compile(x.E)
		start, length := x.Start, x.Len
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v := e(ctx, row)
			if v.Kind == types.KindNull {
				return types.Null
			}
			str := v.S()
			from := start - 1
			if from < 0 {
				from = 0
			}
			if from >= len(str) {
				return types.Str("")
			}
			to := from + length
			if to > len(str) {
				to = len(str)
			}
			return types.Str(str[from:to])
		}
	case *plan.IsNull:
		e := compile(x.E)
		neg := x.Negated
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			return types.Bool((e(ctx, row).Kind == types.KindNull) != neg)
		}
	case *plan.SubPlan:
		args := make([]evalFn, len(x.Args))
		for i, a := range x.Args {
			args[i] = compile(a)
		}
		idx := x.Idx
		// One argument buffer per closure, not per call: RunSubPlan copies
		// the values into the parameter slots before anything else runs.
		vals := make([]types.Value, len(args)) //qpplint:ignore hotalloc captured by a closure cached on ExecCache, which outlives the Run
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			if ctx == nil || ctx.RunSubPlan == nil {
				return types.Null
			}
			for i, a := range args {
				vals[i] = a(ctx, row)
			}
			v, err := ctx.RunSubPlan(idx, vals)
			if err != nil {
				if ctx.Err == nil {
					ctx.Err = err
				}
				return types.Null
			}
			return v
		}
	default:
		// Unknown Scalar implementation: fall back to its interpreter.
		return s.Eval
	}
}

// compileBin dispatches a binary operator to its specialized form.
func compileBin(b *plan.Bin) evalFn {
	switch b.Op {
	case plan.BAnd:
		l, r := compile(b.L), compile(b.R)
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			lv := l(ctx, row)
			if lv.Kind != types.KindNull && !lv.IsTrue() {
				return types.Bool(false)
			}
			rv := r(ctx, row)
			if rv.Kind != types.KindNull && !rv.IsTrue() {
				return types.Bool(false)
			}
			if lv.Kind == types.KindNull || rv.Kind == types.KindNull {
				return types.Null
			}
			return types.Bool(true)
		}
	case plan.BOr:
		l, r := compile(b.L), compile(b.R)
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			lv := l(ctx, row)
			if lv.IsTrue() {
				return types.Bool(true)
			}
			rv := r(ctx, row)
			if rv.IsTrue() {
				return types.Bool(true)
			}
			if lv.Kind == types.KindNull || rv.Kind == types.KindNull {
				return types.Null
			}
			return types.Bool(false)
		}
	case plan.BAdd, plan.BSub, plan.BMul, plan.BDiv:
		return compileArith(b.Op, b.L, b.R)
	default:
		return compileCmp(b.Op, b.L, b.R)
	}
}

// arithValues is the interpreter's arithmetic tail over already-evaluated
// operands — the shared slow path of every compiled arithmetic form.
func arithValues(op plan.BinOp, l, r types.Value) types.Value {
	if l.Kind == types.KindNull || r.Kind == types.KindNull {
		return types.Null
	}
	if l.Kind == types.KindDate && r.Kind == types.KindInt {
		if op == plan.BAdd {
			return types.Date(l.I() + r.I())
		}
		return types.Date(l.I() - r.I())
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	var out float64
	switch op {
	case plan.BAdd:
		out = lf + rf
	case plan.BSub:
		out = lf - rf
	case plan.BMul:
		out = lf * rf
	default: // BDiv
		if rf == 0 {
			return types.Null
		}
		out = lf / rf
	}
	if l.Kind == types.KindInt && r.Kind == types.KindInt && op != plan.BDiv {
		return types.Int(int64(out))
	}
	return types.Float(out)
}

// Operand access modes for fused arithmetic closures: column reads and
// literals are inlined into the operator's own closure (a switch on a
// captured int instead of an indirect call per operand).
const (
	operandFn = iota
	operandCol
	operandConst
)

// operandOf classifies one operand for fusion.
func operandOf(s plan.Scalar) (mode int, idx int, c types.Value, fn evalFn) {
	switch x := s.(type) {
	case *plan.Col:
		return operandCol, x.Idx, types.Value{}, nil
	case *plan.Const:
		return operandConst, 0, x.V, nil
	default:
		return operandFn, 0, types.Value{}, compile(s)
	}
}

// compileArith lowers +,-,*,/ into a single closure with fused Col/Const
// operand access and a float fast path when both operand kinds are
// statically decimal (the TPC-H price arithmetic hot path).
func compileArith(op plan.BinOp, l, r plan.Scalar) evalFn {
	lm, li, lc, lf := operandOf(l)
	rm, ri, rc, rf := operandOf(r)
	floatFast := l.Kind() == types.KindFloat && r.Kind() == types.KindFloat
	return func(ctx *plan.Ctx, row plan.Row) types.Value {
		var lv, rv types.Value
		switch lm {
		case operandCol:
			lv = row[li]
		case operandConst:
			lv = lc
		default:
			lv = lf(ctx, row)
		}
		switch rm {
		case operandCol:
			rv = row[ri]
		case operandConst:
			rv = rc
		default:
			rv = rf(ctx, row)
		}
		if floatFast && lv.Kind == types.KindFloat && rv.Kind == types.KindFloat {
			switch op {
			case plan.BAdd:
				return types.Float(lv.F() + rv.F())
			case plan.BSub:
				return types.Float(lv.F() - rv.F())
			case plan.BMul:
				return types.Float(lv.F() * rv.F())
			default: // BDiv
				if rv.F() == 0 {
					return types.Null
				}
				return types.Float(lv.F() / rv.F())
			}
		}
		return arithValues(op, lv, rv)
	}
}

// applyCmp maps a three-way comparison to the boolean the operator wants.
func applyCmp(op plan.BinOp, c int) bool {
	switch op {
	case plan.BEq:
		return c == 0
	case plan.BNe:
		return c != 0
	case plan.BLt:
		return c < 0
	case plan.BLe:
		return c <= 0
	case plan.BGt:
		return c > 0
	default: // BGe
		return c >= 0
	}
}

// cmpValues is the interpreter's comparison tail over already-evaluated
// operands (NULL propagation, then types.Compare — which panics on
// incomparable kinds exactly as the interpreted path does).
func cmpValues(op plan.BinOp, l, r types.Value) types.Value {
	if l.Kind == types.KindNull || r.Kind == types.KindNull {
		return types.Null
	}
	return types.Bool(applyCmp(op, types.Compare(l, r)))
}

func isNumericKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindDate
}

// compileCmp lowers =,<>,<,<=,>,>= with kind-specialized fast paths for
// the common `Col op Const` shapes. The float comparisons are written as
// the exact !(a<b)/!(a>b) combinations types.Compare reduces to, so NaN
// ordering matches the interpreter bit for bit.
func compileCmp(op plan.BinOp, l, r plan.Scalar) evalFn {
	// Normalize Const-op-Col to Col-op'-Const by mirroring the operator.
	if _, lc := l.(*plan.Const); lc {
		if _, rcol := r.(*plan.Col); rcol {
			l, r = r, l
			switch op {
			case plan.BLt:
				op = plan.BGt
			case plan.BLe:
				op = plan.BGe
			case plan.BGt:
				op = plan.BLt
			case plan.BGe:
				op = plan.BLe
			}
		}
	}
	if col, ok := l.(*plan.Col); ok {
		if cst, ok := r.(*plan.Const); ok && !cst.V.IsNull() {
			switch {
			case isNumericKind(col.K) && cst.V.Numeric():
				return compileColConstNumCmp(op, col.Idx, cst.V)
			case col.K == types.KindString && cst.V.Kind == types.KindString:
				return compileColConstStrCmp(op, col.Idx, cst.V)
			}
		}
	}
	le, re := compile(l), compile(r)
	if isNumericKind(l.Kind()) && isNumericKind(r.Kind()) {
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			lv, rv := le(ctx, row), re(ctx, row)
			if lv.Numeric() && rv.Numeric() {
				return types.Bool(applyFloatCmp(op, lv.AsFloat(), rv.AsFloat()))
			}
			return cmpValues(op, lv, rv)
		}
	}
	return func(ctx *plan.Ctx, row plan.Row) types.Value {
		return cmpValues(op, le(ctx, row), re(ctx, row))
	}
}

// applyFloatCmp evaluates op over float64 operands with exactly the
// outcome applyCmp(op, types.Compare(...)) would produce, including for
// NaN (where Compare's two-sided < test degenerates to "equal").
func applyFloatCmp(op plan.BinOp, a, b float64) bool {
	switch op {
	case plan.BEq:
		return !(a < b) && !(a > b)
	case plan.BNe:
		return a < b || a > b
	case plan.BLt:
		return a < b
	case plan.BLe:
		return !(a > b)
	case plan.BGt:
		return a > b
	default: // BGe
		return !(a < b)
	}
}

// compileColConstNumCmp is the numeric `Col op Const` fast path: one
// bounds-checked row read, one kind switch, one float comparison.
func compileColConstNumCmp(op plan.BinOp, idx int, c types.Value) evalFn {
	cf := c.AsFloat()
	switch op {
	case plan.BEq:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			switch v.Kind {
			case types.KindInt, types.KindDate:
				f := float64(v.I())
				return types.Bool(!(f < cf) && !(f > cf))
			case types.KindFloat:
				return types.Bool(!(v.F() < cf) && !(v.F() > cf))
			}
			return cmpValues(op, v, c)
		}
	case plan.BNe:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			switch v.Kind {
			case types.KindInt, types.KindDate:
				f := float64(v.I())
				return types.Bool(f < cf || f > cf)
			case types.KindFloat:
				return types.Bool(v.F() < cf || v.F() > cf)
			}
			return cmpValues(op, v, c)
		}
	case plan.BLt:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			switch v.Kind {
			case types.KindInt, types.KindDate:
				return types.Bool(float64(v.I()) < cf)
			case types.KindFloat:
				return types.Bool(v.F() < cf)
			}
			return cmpValues(op, v, c)
		}
	case plan.BLe:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			switch v.Kind {
			case types.KindInt, types.KindDate:
				return types.Bool(!(float64(v.I()) > cf))
			case types.KindFloat:
				return types.Bool(!(v.F() > cf))
			}
			return cmpValues(op, v, c)
		}
	case plan.BGt:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			switch v.Kind {
			case types.KindInt, types.KindDate:
				return types.Bool(float64(v.I()) > cf)
			case types.KindFloat:
				return types.Bool(v.F() > cf)
			}
			return cmpValues(op, v, c)
		}
	default: // BGe
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			switch v.Kind {
			case types.KindInt, types.KindDate:
				return types.Bool(!(float64(v.I()) < cf))
			case types.KindFloat:
				return types.Bool(!(v.F() < cf))
			}
			return cmpValues(op, v, c)
		}
	}
}

// compileColConstStrCmp is the string `Col op Const` fast path.
func compileColConstStrCmp(op plan.BinOp, idx int, c types.Value) evalFn {
	cs := c.S()
	switch op {
	case plan.BEq:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			if v.Kind == types.KindString {
				return types.Bool(v.S() == cs)
			}
			return cmpValues(op, v, c)
		}
	case plan.BNe:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			if v.Kind == types.KindString {
				return types.Bool(v.S() != cs)
			}
			return cmpValues(op, v, c)
		}
	case plan.BLt:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			if v.Kind == types.KindString {
				return types.Bool(v.S() < cs)
			}
			return cmpValues(op, v, c)
		}
	case plan.BLe:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			if v.Kind == types.KindString {
				return types.Bool(v.S() <= cs)
			}
			return cmpValues(op, v, c)
		}
	case plan.BGt:
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			if v.Kind == types.KindString {
				return types.Bool(v.S() > cs)
			}
			return cmpValues(op, v, c)
		}
	default: // BGe
		return func(_ *plan.Ctx, row plan.Row) types.Value {
			v := row[idx]
			if v.Kind == types.KindString {
				return types.Bool(v.S() >= cs)
			}
			return cmpValues(op, v, c)
		}
	}
}

// compileIn lowers IN lists: all-constant string lists become a set probe,
// all-constant numeric lists a flat float scan; anything else mirrors the
// interpreter's item-by-item loop.
func compileIn(in *plan.In) evalFn {
	e := compile(in.E)
	neg := in.Negated

	constVals := make([]types.Value, 0, len(in.List)) //qpplint:ignore hotalloc captured by a closure cached on ExecCache, which outlives the Run
	allConst := true
	for _, item := range in.List {
		c, ok := item.(*plan.Const)
		if !ok {
			allConst = false
			break
		}
		constVals = append(constVals, c.V)
	}
	if allConst {
		// inConstValues mirrors the interpreted membership loop over the
		// literal list; the fast paths below reduce to it on kind drift.
		inConstValues := func(v types.Value) types.Value {
			for _, iv := range constVals {
				if iv.Kind != types.KindNull && types.Compare(v, iv) == 0 {
					return types.Bool(!neg)
				}
			}
			return types.Bool(neg)
		}
		allStr, allNum := len(constVals) > 0, len(constVals) > 0
		for _, v := range constVals {
			if v.Kind != types.KindString {
				allStr = false
			}
			if !v.Numeric() {
				allNum = false
			}
		}
		switch {
		case allStr && in.E.Kind() == types.KindString:
			set := make(map[string]bool, len(constVals))
			for _, v := range constVals {
				set[v.S()] = true
			}
			return func(ctx *plan.Ctx, row plan.Row) types.Value {
				v := e(ctx, row)
				if v.Kind == types.KindNull {
					return types.Null
				}
				if v.Kind == types.KindString {
					return types.Bool(set[v.S()] != neg)
				}
				return inConstValues(v)
			}
		case allNum && isNumericKind(in.E.Kind()):
			fs := make([]float64, len(constVals))
			for i, v := range constVals {
				fs[i] = v.AsFloat()
			}
			return func(ctx *plan.Ctx, row plan.Row) types.Value {
				v := e(ctx, row)
				if v.Kind == types.KindNull {
					return types.Null
				}
				if v.Numeric() {
					vf := v.AsFloat()
					for _, f := range fs {
						if !(vf < f) && !(vf > f) {
							return types.Bool(!neg)
						}
					}
					return types.Bool(neg)
				}
				return inConstValues(v)
			}
		default:
			return func(ctx *plan.Ctx, row plan.Row) types.Value {
				v := e(ctx, row)
				if v.Kind == types.KindNull {
					return types.Null
				}
				return inConstValues(v)
			}
		}
	}
	items := make([]evalFn, len(in.List))
	for i, item := range in.List {
		items[i] = compile(item)
	}
	return func(ctx *plan.Ctx, row plan.Row) types.Value {
		v := e(ctx, row)
		if v.Kind == types.KindNull {
			return types.Null
		}
		for _, item := range items {
			iv := item(ctx, row)
			if iv.Kind != types.KindNull && types.Compare(v, iv) == 0 {
				return types.Bool(!neg)
			}
		}
		return types.Bool(neg)
	}
}

// compileBetween lowers BETWEEN with a numeric fast path.
func compileBetween(b *plan.Between) evalFn {
	e, lo, hi := compile(b.E), compile(b.Lo), compile(b.Hi)
	neg := b.Negated
	slow := func(v, lv, hv types.Value) types.Value {
		if v.Kind == types.KindNull || lv.Kind == types.KindNull || hv.Kind == types.KindNull {
			return types.Null
		}
		in := types.Compare(v, lv) >= 0 && types.Compare(v, hv) <= 0
		return types.Bool(in != neg)
	}
	if isNumericKind(b.E.Kind()) && isNumericKind(b.Lo.Kind()) && isNumericKind(b.Hi.Kind()) {
		return func(ctx *plan.Ctx, row plan.Row) types.Value {
			v, lv, hv := e(ctx, row), lo(ctx, row), hi(ctx, row)
			if v.Numeric() && lv.Numeric() && hv.Numeric() {
				vf := v.AsFloat()
				in := !(vf < lv.AsFloat()) && !(vf > hv.AsFloat())
				return types.Bool(in != neg)
			}
			return slow(v, lv, hv)
		}
	}
	return func(ctx *plan.Ctx, row plan.Row) types.Value {
		return slow(e(ctx, row), lo(ctx, row), hi(ctx, row))
	}
}

// likeMatcher compiles a LIKE pattern into a string predicate. Patterns
// without '_' compile to prefix/suffix/segment searches over the '%'
// split (constant-time for the common '%foo%' and 'foo%' shapes);
// patterns with '_' keep the (?s)-anchored regexp plan.NewLike built,
// which agrees with these matchers on every input.
func likeMatcher(l *plan.Like) func(string) bool {
	pattern := l.Pattern
	if strings.ContainsRune(pattern, '_') {
		return l.Matches
	}
	segs := strings.Split(pattern, "%")
	if len(segs) == 1 {
		lit := segs[0]
		return func(s string) bool { return s == lit }
	}
	prefix, suffix := segs[0], segs[len(segs)-1]
	middle := segs[1 : len(segs)-1]
	nonEmpty := middle[:0:0]
	for _, m := range middle {
		if m != "" {
			nonEmpty = append(nonEmpty, m)
		}
	}
	middle = nonEmpty
	if len(middle) == 0 {
		switch {
		case prefix == "" && suffix == "":
			return func(string) bool { return true }
		case prefix == "":
			return func(s string) bool { return strings.HasSuffix(s, suffix) }
		case suffix == "":
			return func(s string) bool { return strings.HasPrefix(s, prefix) }
		}
	}
	return func(s string) bool {
		if len(s) < len(prefix)+len(suffix) ||
			!strings.HasPrefix(s, prefix) || !strings.HasSuffix(s, suffix) {
			return false
		}
		s = s[len(prefix) : len(s)-len(suffix)]
		for _, m := range middle {
			i := strings.Index(s, m)
			if i < 0 {
				return false
			}
			s = s[i+len(m):]
		}
		return true
	}
}
