package plan

// Inspect calls fn for s and, when fn returns true, inspects each of s's
// operands in field order: a pre-order walk. It is the one place that
// lists which fields of a scalar hold sub-expressions; a SubPlan's
// operands are its Args (the sub-plan tree itself is a Node, not an
// operand). A nil s, such as a Case without Else, is skipped.
func Inspect(s Scalar, fn func(Scalar) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch v := s.(type) {
	case *Bin:
		Inspect(v.L, fn)
		Inspect(v.R, fn)
	case *Not:
		Inspect(v.E, fn)
	case *Neg:
		Inspect(v.E, fn)
	case *Case:
		for _, w := range v.Whens {
			Inspect(w.Cond, fn)
			Inspect(w.Then, fn)
		}
		Inspect(v.Else, fn)
	case *In:
		Inspect(v.E, fn)
		for _, item := range v.List {
			Inspect(item, fn)
		}
	case *Between:
		Inspect(v.E, fn)
		Inspect(v.Lo, fn)
		Inspect(v.Hi, fn)
	case *Like:
		Inspect(v.E, fn)
	case *DateAdd:
		Inspect(v.E, fn)
	case *ExtractYear:
		Inspect(v.E, fn)
	case *Substring:
		Inspect(v.E, fn)
	case *IsNull:
		Inspect(v.E, fn)
	case *SubPlan:
		for _, a := range v.Args {
			Inspect(a, fn)
		}
	}
}
