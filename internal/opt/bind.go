package opt

import (
	"fmt"

	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/types"
)

// subCtx tracks the correlated references a subquery makes into its
// enclosing block, so the caller can wire SubPlan arguments.
type subCtx struct {
	outerScope *scope
	refs       []outerRef
}

// outerRef is one correlated reference: an outer-block column and the
// parameter slot it is delivered through.
type outerRef struct {
	rel, col int
	kind     types.Kind
	slot     int
}

// binder binds sql.Expr trees into executable plan.Scalar trees against a
// concrete operator output schema.
type binder struct {
	p      *planner
	sc     *scope      // name-resolution scope of the current block
	schema []schemaCol // binding target: operator output columns
	corr   *subCtx     // non-nil while binding inside a correlated subquery
	// agg, set on an aggregating block's output binder, maps aggregate
	// calls and group expressions onto aggregate-output columns before
	// structural binding (bindAggregate).
	agg *aggScope
}

// offsetOf finds the schema offset of (rel, col).
func (b *binder) offsetOf(rel, col int) (int, bool) {
	return offsetIn(b.schema, rel, col)
}

// bind converts an expression to a bound scalar.
func (b *binder) bind(e sql.Expr) (plan.Scalar, error) {
	if b.agg != nil {
		if s, handled, err := b.bindAggregate(e); handled {
			return s, err
		}
	}
	switch v := e.(type) {
	case *sql.ColumnRef:
		return b.bindColumn(v)
	case *sql.Literal:
		return constScalars.New(b.p.mem, plan.Const{V: v.Value}), nil
	case *sql.BinaryExpr:
		return b.bindBinary(v)
	case *sql.NotExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		return notScalars.New(b.p.mem, plan.Not{E: inner}), nil
	case *sql.NegExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		return negScalars.New(b.p.mem, plan.Neg{E: inner}), nil
	case *sql.CaseExpr:
		out := caseScalars.New(b.p.mem, plan.Case{})
		for _, w := range v.Whens {
			cond, err := b.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := b.bind(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = planWhens.Append(b.p.mem, out.Whens, plan.When{Cond: cond, Then: then})
		}
		if v.Else != nil {
			els, err := b.bind(v.Else)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		out.K = out.Whens[0].Then.Kind()
		return out, nil
	case *sql.InExpr:
		if v.Sub != nil {
			return nil, fmt.Errorf("opt: IN (subquery) is only supported as a top-level WHERE conjunct")
		}
		ex, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		out := inScalars.New(b.p.mem, plan.In{E: ex, Negated: v.Negated})
		for _, item := range v.List {
			s, err := b.bind(item)
			if err != nil {
				return nil, err
			}
			out.List = scalars.Append(b.p.mem, out.List, s)
		}
		return out, nil
	case *sql.BetweenExpr:
		ex, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(v.Hi)
		if err != nil {
			return nil, err
		}
		return betweenScalar.New(b.p.mem, plan.Between{E: ex, Lo: lo, Hi: hi, Negated: v.Negated}), nil
	case *sql.LikeExpr:
		ex, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		if kindKnownNot(ex, types.KindString) {
			return nil, fmt.Errorf("opt: LIKE requires a text operand, got %s", ex.Kind())
		}
		return plan.NewLike(ex, v.Pattern, v.Negated), nil
	case *sql.IsNullExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		return isNullScalars.New(b.p.mem, plan.IsNull{E: inner, Negated: v.Negated}), nil
	case *sql.ExtractExpr:
		if v.Field != "year" {
			return nil, fmt.Errorf("opt: EXTRACT(%s) not supported", v.Field)
		}
		inner, err := b.bind(v.From)
		if err != nil {
			return nil, err
		}
		if kindKnownNot(inner, types.KindDate) {
			return nil, fmt.Errorf("opt: EXTRACT(year) requires a date operand, got %s", inner.Kind())
		}
		return yearScalars.New(b.p.mem, plan.ExtractYear{E: inner}), nil
	case *sql.SubstringExpr:
		inner, err := b.bind(v.E)
		if err != nil {
			return nil, err
		}
		if kindKnownNot(inner, types.KindString) {
			return nil, fmt.Errorf("opt: SUBSTRING requires a text operand, got %s", inner.Kind())
		}
		start, sok := constValue(v.Start)
		length, lok := constValue(v.Len)
		if !sok || !lok || start.Kind() != types.KindInt || length.Kind() != types.KindInt {
			return nil, fmt.Errorf("opt: SUBSTRING requires constant integer bounds")
		}
		return substrScalars.New(b.p.mem, plan.Substring{E: inner, Start: int(start.I()), Len: int(length.I())}), nil
	case *sql.SubqueryExpr:
		return b.bindScalarSubquery(v.Sub)
	case *sql.ExistsExpr:
		return b.bindExistsSubquery(v.Sub, v.Negated)
	case *sql.FuncCall:
		if v.IsAggregate() {
			return nil, fmt.Errorf("opt: aggregate %s used outside aggregation context", v.Name)
		}
		return nil, fmt.Errorf("opt: unknown function %q", v.Name)
	case *sql.Interval:
		return nil, fmt.Errorf("opt: interval literal outside date arithmetic")
	default:
		return nil, fmt.Errorf("opt: cannot bind %T", e)
	}
}

// kindKnownNot reports whether s's static kind is known (a NULL constant
// or an untyped parameter is not) and differs from want: the operand kinds
// the binder refuses rather than let Eval read a payload of another kind.
func kindKnownNot(s plan.Scalar, want types.Kind) bool {
	k := s.Kind()
	return k != types.KindNull && k != want
}

func (b *binder) bindColumn(ref *sql.ColumnRef) (plan.Scalar, error) {
	rel, col, err := b.sc.resolve(ref)
	if err == nil {
		off, ok := b.offsetOf(rel, col)
		if !ok {
			return nil, fmt.Errorf("opt: column %s not available in this operator's schema", ref.SQL())
		}
		return b.p.col(plan.Col{Idx: off, K: b.p.column(b.schema[off]).Type, Name: ref.SQL()}), nil
	}
	// Correlated reference into the enclosing block.
	if b.corr != nil && b.corr.outerScope != nil {
		orel, ocol, oerr := b.corr.outerScope.resolve(ref)
		if oerr == nil {
			kind := b.corr.outerScope.relByID(orel).cols[ocol].Type
			for _, r := range b.corr.refs {
				if r.rel == orel && r.col == ocol {
					return paramRefs.New(b.p.mem, plan.ParamRef{Idx: r.slot, K: kind}), nil
				}
			}
			slot := b.p.allocParam()
			b.corr.refs = outerRefs.Append(b.p.mem, b.corr.refs, outerRef{rel: orel, col: ocol, kind: kind, slot: slot})
			return paramRefs.New(b.p.mem, plan.ParamRef{Idx: slot, K: kind}), nil
		}
	}
	return nil, fmt.Errorf("%w: %s", err, ref.SQL())
}

func (b *binder) bindBinary(v *sql.BinaryExpr) (plan.Scalar, error) {
	// Date ± interval becomes DateAdd.
	if iv, ok := v.R.(*sql.Interval); ok && (v.Op == sql.OpAdd || v.Op == sql.OpSub) {
		inner, err := b.bind(v.L)
		if err != nil {
			return nil, err
		}
		n := iv.N
		if v.Op == sql.OpSub {
			n = -n
		}
		return dateAdds.New(b.p.mem, plan.DateAdd{E: inner, N: n, Unit: iv.Unit}), nil
	}
	l, err := b.bind(v.L)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(v.R)
	if err != nil {
		return nil, err
	}
	var op plan.BinOp
	kind := types.KindBool
	switch v.Op {
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
		switch v.Op {
		case sql.OpAdd:
			op = plan.BAdd
		case sql.OpSub:
			op = plan.BSub
		case sql.OpMul:
			op = plan.BMul
		default:
			op = plan.BDiv
		}
		switch {
		case l.Kind() == types.KindDate || r.Kind() == types.KindDate:
			kind = types.KindDate
		case l.Kind() == types.KindInt && r.Kind() == types.KindInt && v.Op != sql.OpDiv:
			kind = types.KindInt
		default:
			kind = types.KindFloat
		}
	case sql.OpEq:
		op = plan.BEq
	case sql.OpNe:
		op = plan.BNe
	case sql.OpLt:
		op = plan.BLt
	case sql.OpLe:
		op = plan.BLe
	case sql.OpGt:
		op = plan.BGt
	case sql.OpGe:
		op = plan.BGe
	case sql.OpAnd:
		op = plan.BAnd
	case sql.OpOr:
		op = plan.BOr
	default:
		return nil, fmt.Errorf("opt: unsupported operator %q", v.Op)
	}
	return binScalars.New(b.p.mem, plan.Bin{Op: op, L: l, R: r, K: kind}), nil
}

// bindScalarSubquery plans an uncorrelated scalar subquery as an init-plan
// or a correlated one as a sub-plan, returning the referencing scalar.
func (b *binder) bindScalarSubquery(stmt *sql.SelectStmt) (plan.Scalar, error) {
	corr := subCtxs.New(b.p.mem, subCtx{outerScope: b.sc})
	node, err := b.p.planSelect(stmt, corr)
	if err != nil {
		return nil, err
	}
	kind := types.KindFloat
	if len(node.Cols) > 0 {
		kind = node.Cols[0].K
	}
	if len(corr.refs) == 0 {
		slot := b.p.allocParam()
		b.p.initPlans = nodeLists.Append(b.p.mem, b.p.initPlans, node)
		b.p.initSlots = intLists.Append(b.p.mem, b.p.initSlots, slot)
		return paramRefs.New(b.p.mem, plan.ParamRef{Idx: slot, K: kind}), nil
	}
	// Correlated: register sub-plan; arguments are the outer columns bound
	// against the *current* schema.
	args := scalars.Make(b.p.mem, len(corr.refs))
	slots := intLists.Make(b.p.mem, len(corr.refs))
	for i, r := range corr.refs {
		off, ok := b.offsetOf(r.rel, r.col)
		if !ok {
			return nil, fmt.Errorf("opt: correlated column (rel %d, col %d) not available where sub-plan is evaluated", r.rel, r.col)
		}
		args[i] = b.p.col(plan.Col{Idx: off, K: r.kind, Name: b.p.column(b.schema[off]).Name})
		slots[i] = r.slot
	}
	idx := len(b.p.subPlans)
	b.p.subPlans = nodeLists.Append(b.p.mem, b.p.subPlans, node)
	b.p.subArgSlots = slotLists.Append(b.p.mem, b.p.subArgSlots, slots)
	return subPlanRefs.New(b.p.mem, plan.SubPlan{Idx: idx, Args: args, Mode: plan.SubPlanScalar, K: kind}), nil
}

// bindExistsSubquery handles EXISTS used in a context where decorrelation
// was not possible: it plans the subquery wrapped in count(*) over LIMIT 1
// and compares the count against zero.
func (b *binder) bindExistsSubquery(stmt *sql.SelectStmt, negated bool) (plan.Scalar, error) {
	p := b.p
	corr := subCtxs.New(p.mem, subCtx{outerScope: b.sc})
	node, err := p.planSelect(stmt, corr)
	if err != nil {
		return nil, err
	}
	lim := p.node(plan.Node{Op: plan.OpLimit, Children: p.children(node), Cols: node.Cols, LimitN: 1})
	p.costLimit(lim)
	agg := p.node(plan.Node{
		Op:       plan.OpAggregate,
		Children: p.children(lim),
		Cols:     columns.Clone(p.mem, []plan.Column{{Name: "exists", K: types.KindInt, Width: 8}}),
		Agg:      aggPayloads.New(p.mem, plan.AggPayload{Aggs: aggSpecs.Clone(p.mem, []plan.AggSpec{{Func: plan.AggCount, K: types.KindInt}})}),
	})
	p.costAggregate(agg, 1)
	args := scalars.Make(p.mem, len(corr.refs))
	slots := intLists.Make(p.mem, len(corr.refs))
	for i, r := range corr.refs {
		off, ok := b.offsetOf(r.rel, r.col)
		if !ok {
			return nil, fmt.Errorf("opt: correlated EXISTS column not available at evaluation site")
		}
		args[i] = p.col(plan.Col{Idx: off, K: r.kind, Name: p.column(b.schema[off]).Name})
		slots[i] = r.slot
	}
	idx := len(p.subPlans)
	p.subPlans = nodeLists.Append(p.mem, p.subPlans, agg)
	p.subArgSlots = slotLists.Append(p.mem, p.subArgSlots, slots)
	mode := plan.SubPlanExists
	cmp := plan.BGt
	if negated {
		mode = plan.SubPlanNotExists
		cmp = plan.BEq
	}
	sub := subPlanRefs.New(p.mem, plan.SubPlan{Idx: idx, Args: args, Mode: mode, K: types.KindInt})
	return binScalars.New(p.mem, plan.Bin{Op: cmp, L: sub, R: constScalars.New(p.mem, plan.Const{V: types.Int(0)}), K: types.KindBool}), nil
}
