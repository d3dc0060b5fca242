package plan

import (
	"bytes"
	"strconv"

	"qpp/internal/types"
)

// SameText reports whether a and b render the same String — the test the
// planner matches GROUP BY, aggregate and ORDER BY expressions by — by
// walking both trees instead of building either string. Operands compare
// as String shows them: a column by its display name (by ordinal when it
// has none), a constant by its rendered value (floats to two decimals), a
// sub-plan by its number and mode; result kinds, which String omits, are
// ignored. Two different trees whose text merely collides (a string
// constant that spells out an operator, say) are different to it. A nil
// operand, such as a Case without Else, equals only nil.
func SameText(a, b Scalar) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && sameColText(x, y)
	case *Const:
		y, ok := b.(*Const)
		return ok && sameConstText(x.V, y.V)
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && SameText(x.L, y.L) && SameText(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && SameText(x.E, y.E)
	case *Neg:
		y, ok := b.(*Neg)
		return ok && SameText(x.E, y.E)
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) {
			return false
		}
		for i, w := range x.Whens {
			if !SameText(w.Cond, y.Whens[i].Cond) || !SameText(w.Then, y.Whens[i].Then) {
				return false
			}
		}
		return SameText(x.Else, y.Else)
	case *In:
		y, ok := b.(*In)
		if !ok || x.Negated != y.Negated || len(x.List) != len(y.List) || !SameText(x.E, y.E) {
			return false
		}
		for i, item := range x.List {
			if !SameText(item, y.List[i]) {
				return false
			}
		}
		return true
	case *Between:
		y, ok := b.(*Between)
		return ok && x.Negated == y.Negated && SameText(x.E, y.E) && SameText(x.Lo, y.Lo) && SameText(x.Hi, y.Hi)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Negated == y.Negated && x.Pattern == y.Pattern && SameText(x.E, y.E)
	case *DateAdd:
		y, ok := b.(*DateAdd)
		return ok && x.N == y.N && x.Unit == y.Unit && SameText(x.E, y.E)
	case *ExtractYear:
		y, ok := b.(*ExtractYear)
		return ok && SameText(x.E, y.E)
	case *Substring:
		y, ok := b.(*Substring)
		return ok && x.Start == y.Start && x.Len == y.Len && SameText(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negated == y.Negated && SameText(x.E, y.E)
	case *ParamRef:
		y, ok := b.(*ParamRef)
		return ok && x.Idx == y.Idx
	case *SubPlan:
		y, ok := b.(*SubPlan)
		return ok && x.Idx == y.Idx && subPlanPrefix(x.Mode) == subPlanPrefix(y.Mode)
	}
	return a.String() == b.String()
}

// sameColText compares two columns' String: the name, or "$col<Idx>".
func sameColText(x, y *Col) bool {
	switch {
	case x.Name != "" && y.Name != "":
		return x.Name == y.Name
	case x.Name == "" && y.Name == "":
		return x.Idx == y.Idx
	case x.Name == "":
		x, y = y, x
	}
	var buf [24]byte
	return x.Name == string(strconv.AppendInt(append(buf[:0], "$col"...), int64(y.Idx), 10))
}

// sameConstText compares two constants' String. Values of different kinds
// never render alike (a string is quoted, a float has a decimal point);
// floats render to two decimals, every other kind exactly.
func sameConstText(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() != types.KindFloat {
		return types.Identical(a, b)
	}
	var ba, bb [32]byte
	return bytes.Equal(strconv.AppendFloat(ba[:0], a.F(), 'f', 2, 64), strconv.AppendFloat(bb[:0], b.F(), 'f', 2, 64))
}

// subPlanPrefix is what a sub-plan's String shows of its mode.
func subPlanPrefix(m SubPlanMode) SubPlanMode {
	if m == SubPlanExists || m == SubPlanNotExists {
		return m
	}
	return SubPlanScalar
}

// SameText reports whether a and b render the same String, as the
// package-level SameText does for scalars.
func (a AggSpec) SameText(b AggSpec) bool {
	if a.Func != b.Func || (a.Arg == nil) != (b.Arg == nil) {
		return false
	}
	return a.Arg == nil || a.Distinct == b.Distinct && SameText(a.Arg, b.Arg)
}
