package opt

import (
	"math"

	"qpp/internal/catalog"
	"qpp/internal/sql"
	"qpp/internal/types"
)

// Default selectivities, following PostgreSQL's defaults. These kick in
// when statistics cannot answer a predicate — one of the places estimation
// error (and therefore cost-model error) comes from.
const (
	defaultEqSel    = 0.005
	defaultRangeSel = 1.0 / 3.0
	defaultSel      = 0.5
	defaultInSel    = 0.02
)

// colStats returns the base-table statistics behind a schema column, or
// nil for computed/derived columns.
func (p *planner) colStats(sc schemaCol) *catalog.ColumnStats {
	if sc.rel < 0 {
		return nil
	}
	ri := p.relByID[sc.rel]
	if ri.table == "" {
		return nil
	}
	st, ok := p.db.TableStats(ri.table)
	if !ok || int(sc.col) >= len(st.Columns) {
		return nil
	}
	return &st.Columns[sc.col]
}

// constValue evaluates a constant-foldable expression (literals, date
// arithmetic on literals) to a value; ok=false if not constant.
func constValue(e sql.Expr) (types.Value, bool) {
	switch v := e.(type) {
	case *sql.Literal:
		return v.Value, true
	case *sql.NegExpr:
		inner, ok := constValue(v.E)
		if !ok {
			return types.Null, false
		}
		switch inner.Kind() {
		case types.KindInt:
			return types.Int(-inner.I()), true
		case types.KindFloat:
			return types.Float(-inner.F()), true
		}
		return types.Null, false
	case *sql.BinaryExpr:
		l, lok := constValue(v.L)
		if !lok {
			return types.Null, false
		}
		// date +/- interval
		if iv, ok := v.R.(*sql.Interval); ok && l.Kind() == types.KindDate {
			n := iv.N
			if v.Op == sql.OpSub {
				n = -n
			}
			switch iv.Unit {
			case "day":
				return types.Date(l.I() + int64(n)), true
			case "month":
				return types.Date(types.AddMonths(l.I(), n)), true
			case "year":
				return types.Date(types.AddYears(l.I(), n)), true
			}
			return types.Null, false
		}
		r, rok := constValue(v.R)
		if !rok || !l.Numeric() || !r.Numeric() {
			return types.Null, false
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		var out float64
		switch v.Op {
		case sql.OpAdd:
			out = lf + rf
		case sql.OpSub:
			out = lf - rf
		case sql.OpMul:
			out = lf * rf
		case sql.OpDiv:
			if rf == 0 {
				return types.Null, false
			}
			out = lf / rf
		default:
			return types.Null, false
		}
		if l.Kind() == types.KindInt && r.Kind() == types.KindInt && v.Op != sql.OpDiv {
			return types.Int(int64(out)), true
		}
		if l.Kind() == types.KindDate {
			return types.Date(int64(out)), true
		}
		return types.Float(out), true
	}
	return types.Null, false
}

// filterSelectivity estimates the fraction of rows passing a predicate,
// resolving column references through sc. Conjunctions multiply
// (attribute independence — deliberately shared with PostgreSQL).
func (p *planner) filterSelectivity(e sql.Expr, sc *scope) float64 {
	switch v := e.(type) {
	case *sql.BinaryExpr:
		switch v.Op {
		case sql.OpAnd:
			return clampSel(p.filterSelectivity(v.L, sc) * p.filterSelectivity(v.R, sc))
		case sql.OpOr:
			s1, s2 := p.filterSelectivity(v.L, sc), p.filterSelectivity(v.R, sc)
			return clampSel(s1 + s2 - s1*s2)
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return p.comparisonSelectivity(v, sc)
		default:
			return defaultSel
		}
	case *sql.NotExpr:
		return clampSel(1 - p.filterSelectivity(v.E, sc))
	case *sql.BetweenExpr:
		cs := p.statsFor(v.E, sc)
		lo, lok := constValue(v.Lo)
		hi, hok := constValue(v.Hi)
		if cs == nil || !lok || !hok {
			return defaultRangeSel * defaultRangeSel
		}
		s := cs.HistogramSelectivityLE(hi.AsFloat()) - cs.HistogramSelectivityLE(lo.AsFloat())
		if v.Negated {
			s = 1 - s
		}
		return clampSel(s)
	case *sql.InExpr:
		if v.Sub != nil {
			return defaultInSel
		}
		cs := p.statsFor(v.E, sc)
		var s float64
		for _, item := range v.List {
			if cv, ok := constValue(item); ok && cs != nil {
				s += cs.EqualitySelectivity(cv)
			} else {
				s += defaultEqSel
			}
		}
		if v.Negated {
			s = 1 - s
		}
		return clampSel(s)
	case *sql.LikeExpr:
		return likeSelectivity(v.Pattern, v.Negated)
	case *sql.IsNullExpr:
		if cs := p.statsFor(v.E, sc); cs != nil {
			s := cs.NullFrac
			if v.Negated {
				s = 1 - s
			}
			return clampSel(s)
		}
		if v.Negated {
			return clampSel(1 - defaultEqSel)
		}
		return defaultEqSel
	case *sql.ExistsExpr:
		return defaultSel
	case *sql.SubqueryExpr:
		return defaultSel
	default:
		return defaultSel
	}
}

// comparisonSelectivity handles col <op> const, const <op> col, col = col.
func (p *planner) comparisonSelectivity(v *sql.BinaryExpr, sc *scope) float64 {
	lcs := p.statsFor(v.L, sc)
	rcs := p.statsFor(v.R, sc)
	lc, lok := constValue(v.L)
	rc, rok := constValue(v.R)

	// Normalize to col <op> const.
	cs, cv := lcs, rc
	op := v.Op
	haveConst := rok
	if lok && rcs != nil {
		cs, cv = rcs, lc
		haveConst = true
		op = flipOp(op)
	}

	switch {
	case cs != nil && haveConst:
		switch op {
		case sql.OpEq:
			return clampSel(cs.EqualitySelectivity(cv))
		case sql.OpNe:
			return clampSel(1 - cs.EqualitySelectivity(cv))
		case sql.OpLt, sql.OpLe:
			if cv.Numeric() {
				return clampSel(cs.HistogramSelectivityLE(cv.AsFloat()))
			}
			return defaultRangeSel
		case sql.OpGt, sql.OpGe:
			if cv.Numeric() {
				return clampSel(1 - cs.HistogramSelectivityLE(cv.AsFloat()))
			}
			return defaultRangeSel
		}
	case lcs != nil && rcs != nil && v.Op == sql.OpEq:
		// Same-block column equality (e.g. l_commitdate < l_receiptdate
		// falls to range default; equality uses NDVs).
		nd := max(lcs.NDV, rcs.NDV)
		if nd > 0 {
			return clampSel(1 / nd)
		}
	case v.Op == sql.OpEq:
		// Equality against a subquery or expression: like an unknown const.
		if cs != nil && cs.NDV > 0 {
			return clampSel(1 / cs.NDV)
		}
		return defaultEqSel
	}
	if v.Op == sql.OpEq || v.Op == sql.OpNe {
		return defaultEqSel
	}
	return defaultRangeSel
}

// statsFor returns the column statistics when e is a plain column
// reference resolvable in this block.
func (p *planner) statsFor(e sql.Expr, sc *scope) *catalog.ColumnStats {
	ref, ok := e.(*sql.ColumnRef)
	if !ok {
		return nil
	}
	rel, col, err := sc.resolve(ref)
	if err != nil {
		return nil
	}
	return p.colStats(schemaCol{rel: int32(rel), col: int32(col)})
}

// likeSelectivity mimics PostgreSQL's pattern heuristics: every literal
// character makes the pattern more selective; leading wildcards make it
// less so. The result is deliberately approximate.
func likeSelectivity(pattern string, negated bool) float64 {
	literal := 0
	wildcards := 0
	for _, r := range pattern {
		switch r {
		case '%':
			wildcards++
		case '_':
		default:
			literal++
		}
	}
	sel := math.Pow(0.82, float64(literal))
	if wildcards == 0 {
		// Effectively equality.
		sel = defaultEqSel
	}
	sel = clampSel(sel)
	if negated {
		sel = 1 - sel
	}
	return clampSel(sel)
}

func flipOp(op sql.BinaryOp) sql.BinaryOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	default:
		return op
	}
}

func clampSel(s float64) float64 {
	if s < 1e-7 {
		return 1e-7
	}
	if s > 1 {
		return 1
	}
	if math.IsNaN(s) {
		return defaultSel
	}
	return s
}
