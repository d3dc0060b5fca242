package sql

// Inspect calls fn for e and, when fn returns true, inspects each of e's
// operands in field order: a pre-order walk. It is the one place that
// lists which fields of a node hold sub-expressions, so an analysis over
// expressions is a callback that handles only the node types it cares
// about. It does not enter subquery statements (SubqueryExpr, ExistsExpr,
// InExpr.Sub): a caller that needs them handles those nodes inside fn. A
// nil e, such as a CASE without ELSE, is skipped.
func Inspect(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *BinaryExpr:
		Inspect(v.L, fn)
		Inspect(v.R, fn)
	case *NotExpr:
		Inspect(v.E, fn)
	case *NegExpr:
		Inspect(v.E, fn)
	case *FuncCall:
		for _, a := range v.Args {
			Inspect(a, fn)
		}
	case *CaseExpr:
		for _, w := range v.Whens {
			Inspect(w.Cond, fn)
			Inspect(w.Then, fn)
		}
		Inspect(v.Else, fn)
	case *InExpr:
		Inspect(v.E, fn)
		for _, item := range v.List {
			Inspect(item, fn)
		}
	case *BetweenExpr:
		Inspect(v.E, fn)
		Inspect(v.Lo, fn)
		Inspect(v.Hi, fn)
	case *LikeExpr:
		Inspect(v.E, fn)
	case *IsNullExpr:
		Inspect(v.E, fn)
	case *ExtractExpr:
		Inspect(v.From, fn)
	case *SubstringExpr:
		Inspect(v.E, fn)
		Inspect(v.Start, fn)
		Inspect(v.Len, fn)
	}
}
