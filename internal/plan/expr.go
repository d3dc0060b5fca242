// Package plan defines the physical query plan representation shared by
// the optimizer (which builds and costs it), the executor (which runs and
// instruments it), and the QPP layer (which extracts features from it):
// bound scalar expressions, plan nodes with estimate/actual annotations,
// canonical sub-plan hashing, and EXPLAIN rendering.
package plan

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"qpp/internal/types"
)

// Row is a tuple flowing between operators.
type Row = []types.Value

// Ctx carries cross-node execution state for expression evaluation:
// parameter values (init-plan results and correlated arguments) and the
// executor's sub-plan evaluation callback.
type Ctx struct {
	Params []types.Value
	// RunSubPlan evaluates correlated sub-plan idx with the given argument
	// values and returns its scalar result (or a boolean for EXISTS mode).
	RunSubPlan func(idx int, args []types.Value) (types.Value, error)
	// Err records the first evaluation error (e.g. sub-plan failure).
	Err error
}

// ExprCost summarizes the work an expression performs per evaluation, for
// CPU accounting: Ops counts primitive operations, NumericOps counts
// decimal arithmetic operations, which the virtual device model charges at
// a software-arithmetic penalty (the paper's template-1 observation).
type ExprCost struct {
	Ops        float64
	NumericOps float64
}

func (c ExprCost) plus(o ExprCost) ExprCost {
	return ExprCost{c.Ops + o.Ops, c.NumericOps + o.NumericOps}
}

// Scalar is a bound, executable expression over a Row.
type Scalar interface {
	Eval(ctx *Ctx, row Row) types.Value
	Cost() ExprCost
	// String renders the expression for EXPLAIN output and canonical
	// sub-plan hashing.
	String() string
	// Kind is the static result type.
	Kind() types.Kind
}

// Col reads column Idx of the input row.
type Col struct {
	Idx  int
	K    types.Kind
	Name string // for display only
}

// Eval implements Scalar.
func (c *Col) Eval(_ *Ctx, row Row) types.Value { return row[c.Idx] }

// Cost implements Scalar.
func (c *Col) Cost() ExprCost { return ExprCost{} }

// String implements Scalar.
func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$col%d", c.Idx)
}

// Kind implements Scalar.
func (c *Col) Kind() types.Kind { return c.K }

// Const is a literal value.
type Const struct{ V types.Value }

// Eval implements Scalar.
func (c *Const) Eval(_ *Ctx, _ Row) types.Value { return c.V }

// Cost implements Scalar.
func (c *Const) Cost() ExprCost { return ExprCost{} }

// String implements Scalar.
func (c *Const) String() string {
	if c.V.Kind == types.KindString {
		return "'" + c.V.S() + "'"
	}
	return c.V.String()
}

// Kind implements Scalar.
func (c *Const) Kind() types.Kind { return c.V.Kind }

// BinOp enumerates bound binary operators.
type BinOp int

// Bound binary operators.
const (
	BAdd BinOp = iota
	BSub
	BMul
	BDiv
	BEq
	BNe
	BLt
	BLe
	BGt
	BGe
	BAnd
	BOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "and", "or"}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Scalar
	K    types.Kind
}

// Eval implements Scalar.
func (b *Bin) Eval(ctx *Ctx, row Row) types.Value {
	switch b.Op {
	case BAnd:
		l := b.L.Eval(ctx, row)
		if !l.IsNull() && !l.IsTrue() {
			return types.Bool(false)
		}
		r := b.R.Eval(ctx, row)
		if !r.IsNull() && !r.IsTrue() {
			return types.Bool(false)
		}
		if l.IsNull() || r.IsNull() {
			return types.Null
		}
		return types.Bool(true)
	case BOr:
		l := b.L.Eval(ctx, row)
		if l.IsTrue() {
			return types.Bool(true)
		}
		r := b.R.Eval(ctx, row)
		if r.IsTrue() {
			return types.Bool(true)
		}
		if l.IsNull() || r.IsNull() {
			return types.Null
		}
		return types.Bool(false)
	}
	l := b.L.Eval(ctx, row)
	r := b.R.Eval(ctx, row)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	switch b.Op {
	case BAdd, BSub, BMul, BDiv:
		// Date ± integer days.
		if l.Kind == types.KindDate && r.Kind == types.KindInt {
			if b.Op == BAdd {
				return types.Date(l.I() + r.I())
			}
			return types.Date(l.I() - r.I())
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		var out float64
		switch b.Op {
		case BAdd:
			out = lf + rf
		case BSub:
			out = lf - rf
		case BMul:
			out = lf * rf
		case BDiv:
			if rf == 0 {
				return types.Null
			}
			out = lf / rf
		}
		if l.Kind == types.KindInt && r.Kind == types.KindInt && b.Op != BDiv {
			return types.Int(int64(out))
		}
		return types.Float(out)
	case BEq:
		return types.Bool(types.Compare(l, r) == 0)
	case BNe:
		return types.Bool(types.Compare(l, r) != 0)
	case BLt:
		return types.Bool(types.Compare(l, r) < 0)
	case BLe:
		return types.Bool(types.Compare(l, r) <= 0)
	case BGt:
		return types.Bool(types.Compare(l, r) > 0)
	case BGe:
		return types.Bool(types.Compare(l, r) >= 0)
	}
	return types.Null
}

// Cost implements Scalar.
func (b *Bin) Cost() ExprCost {
	c := b.L.Cost().plus(b.R.Cost())
	c.Ops++
	if b.Op <= BDiv && (b.L.Kind() == types.KindFloat || b.R.Kind() == types.KindFloat) {
		c.NumericOps++
	}
	return c
}

// String implements Scalar.
func (b *Bin) String() string {
	return "(" + b.L.String() + " " + binOpNames[b.Op] + " " + b.R.String() + ")"
}

// Kind implements Scalar.
func (b *Bin) Kind() types.Kind { return b.K }

// Not negates a boolean.
type Not struct{ E Scalar }

// Eval implements Scalar.
func (n *Not) Eval(ctx *Ctx, row Row) types.Value {
	v := n.E.Eval(ctx, row)
	if v.IsNull() {
		return types.Null
	}
	return types.Bool(!v.IsTrue())
}

// Cost implements Scalar.
func (n *Not) Cost() ExprCost { c := n.E.Cost(); c.Ops++; return c }

// String implements Scalar.
func (n *Not) String() string { return "(not " + n.E.String() + ")" }

// Kind implements Scalar.
func (n *Not) Kind() types.Kind { return types.KindBool }

// Neg is numeric negation.
type Neg struct{ E Scalar }

// Eval implements Scalar.
func (n *Neg) Eval(ctx *Ctx, row Row) types.Value {
	v := n.E.Eval(ctx, row)
	switch v.Kind {
	case types.KindInt:
		return types.Int(-v.I())
	case types.KindFloat:
		return types.Float(-v.F())
	default:
		return types.Null
	}
}

// Cost implements Scalar.
func (n *Neg) Cost() ExprCost { c := n.E.Cost(); c.Ops++; return c }

// String implements Scalar.
func (n *Neg) String() string { return "(-" + n.E.String() + ")" }

// Kind implements Scalar.
func (n *Neg) Kind() types.Kind { return n.E.Kind() }

// When is one arm of a Case.
type When struct {
	Cond Scalar
	Then Scalar
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Scalar // may be nil
	K     types.Kind
}

// Eval implements Scalar.
func (c *Case) Eval(ctx *Ctx, row Row) types.Value {
	for _, w := range c.Whens {
		if w.Cond.Eval(ctx, row).IsTrue() {
			return w.Then.Eval(ctx, row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(ctx, row)
	}
	return types.Null
}

// Cost implements Scalar.
func (c *Case) Cost() ExprCost {
	var t ExprCost
	for _, w := range c.Whens {
		t = t.plus(w.Cond.Cost()).plus(w.Then.Cost())
	}
	if c.Else != nil {
		t = t.plus(c.Else.Cost())
	}
	t.Ops++
	return t
}

// String implements Scalar.
func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("case")
	for _, w := range c.Whens {
		sb.WriteString(" when " + w.Cond.String() + " then " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" else " + c.Else.String())
	}
	sb.WriteString(" end")
	return sb.String()
}

// Kind implements Scalar.
func (c *Case) Kind() types.Kind { return c.K }

// In tests membership in a literal list.
type In struct {
	E       Scalar
	List    []Scalar
	Negated bool
}

// Eval implements Scalar.
func (in *In) Eval(ctx *Ctx, row Row) types.Value {
	v := in.E.Eval(ctx, row)
	if v.IsNull() {
		return types.Null
	}
	for _, item := range in.List {
		iv := item.Eval(ctx, row)
		if !iv.IsNull() && types.Compare(v, iv) == 0 {
			return types.Bool(!in.Negated)
		}
	}
	return types.Bool(in.Negated)
}

// Cost implements Scalar.
func (in *In) Cost() ExprCost {
	c := in.E.Cost()
	c.Ops += float64(len(in.List))
	return c
}

// String implements Scalar.
func (in *In) String() string {
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.String()
	}
	op := " in ("
	if in.Negated {
		op = " not in ("
	}
	return "(" + in.E.String() + op + strings.Join(items, ", ") + "))"
}

// Kind implements Scalar.
func (in *In) Kind() types.Kind { return types.KindBool }

// Between is a range predicate, inclusive on both ends.
type Between struct {
	E, Lo, Hi Scalar
	Negated   bool
}

// Eval implements Scalar.
func (b *Between) Eval(ctx *Ctx, row Row) types.Value {
	v := b.E.Eval(ctx, row)
	lo := b.Lo.Eval(ctx, row)
	hi := b.Hi.Eval(ctx, row)
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return types.Null
	}
	in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
	return types.Bool(in != b.Negated)
}

// Cost implements Scalar.
func (b *Between) Cost() ExprCost {
	c := b.E.Cost().plus(b.Lo.Cost()).plus(b.Hi.Cost())
	c.Ops += 2
	return c
}

// String implements Scalar.
func (b *Between) String() string {
	op := " between "
	if b.Negated {
		op = " not between "
	}
	return "(" + b.E.String() + op + b.Lo.String() + " and " + b.Hi.String() + ")"
}

// Kind implements Scalar.
func (b *Between) Kind() types.Kind { return types.KindBool }

// Like matches SQL LIKE patterns through a regexp compiled on first use:
// planning never evaluates a predicate, and the executor's compiled string
// matchers cover every pattern without '_', so most plans never need it.
type Like struct {
	E       Scalar
	Pattern string
	Negated bool
	re      *likeRegexp
}

// likeRegexp is a Like's regexp, compiled once, by whichever evaluation
// needs it first. It sits behind a pointer so a copied Like copies no lock.
type likeRegexp struct {
	once sync.Once
	re   *regexp.Regexp
}

// NewLike binds a LIKE pattern ('%' any run, '_' any single char).
func NewLike(e Scalar, pattern string, negated bool) *Like {
	return &Like{E: e, Pattern: pattern, Negated: negated, re: new(likeRegexp)}
}

// compiled returns the pattern's anchored regexp. The wildcards match every
// character including newline ((?s)), so the executor's compiled string
// matchers and this regexp agree on all inputs.
func (l *Like) compiled() *regexp.Regexp {
	l.re.once.Do(func() {
		var sb strings.Builder
		sb.WriteString("(?s)^")
		for _, r := range l.Pattern {
			switch r {
			case '%':
				sb.WriteString(".*")
			case '_':
				sb.WriteString(".")
			default:
				sb.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		sb.WriteString("$")
		l.re.re = regexp.MustCompile(sb.String())
	})
	return l.re.re
}

// Eval implements Scalar.
func (l *Like) Eval(ctx *Ctx, row Row) types.Value {
	v := l.E.Eval(ctx, row)
	if v.IsNull() {
		return types.Null
	}
	return types.Bool(l.compiled().MatchString(v.S()) != l.Negated)
}

// Matches reports whether s matches the raw pattern (before negation).
// The executor's expression compiler uses it as the reference matcher for
// patterns its specialized string searches don't cover.
func (l *Like) Matches(s string) bool { return l.compiled().MatchString(s) }

// Cost implements Scalar.
func (l *Like) Cost() ExprCost {
	c := l.E.Cost()
	c.Ops += 4 // pattern matching is several comparisons' worth of work
	return c
}

// String implements Scalar.
func (l *Like) String() string {
	op := " like '"
	if l.Negated {
		op = " not like '"
	}
	return "(" + l.E.String() + op + l.Pattern + "')"
}

// Kind implements Scalar.
func (l *Like) Kind() types.Kind { return types.KindBool }

// DateAdd shifts a date expression by a calendar interval.
type DateAdd struct {
	E    Scalar
	N    int
	Unit string // "day", "month", "year"
}

// Eval implements Scalar.
func (d *DateAdd) Eval(ctx *Ctx, row Row) types.Value {
	v := d.E.Eval(ctx, row)
	if v.IsNull() {
		return types.Null
	}
	switch d.Unit {
	case "day":
		return types.Date(v.I() + int64(d.N))
	case "month":
		return types.Date(types.AddMonths(v.I(), d.N))
	default:
		return types.Date(types.AddYears(v.I(), d.N))
	}
}

// Cost implements Scalar.
func (d *DateAdd) Cost() ExprCost { c := d.E.Cost(); c.Ops++; return c }

// String implements Scalar.
func (d *DateAdd) String() string {
	return fmt.Sprintf("(%s + interval '%d' %s)", d.E.String(), d.N, d.Unit)
}

// Kind implements Scalar.
func (d *DateAdd) Kind() types.Kind { return types.KindDate }

// ExtractYear extracts the calendar year of a date.
type ExtractYear struct{ E Scalar }

// Eval implements Scalar.
func (e *ExtractYear) Eval(ctx *Ctx, row Row) types.Value {
	v := e.E.Eval(ctx, row)
	if v.IsNull() {
		return types.Null
	}
	return types.Int(int64(types.Year(v.I())))
}

// Cost implements Scalar.
func (e *ExtractYear) Cost() ExprCost { c := e.E.Cost(); c.Ops++; return c }

// String implements Scalar.
func (e *ExtractYear) String() string { return "extract(year from " + e.E.String() + ")" }

// Kind implements Scalar.
func (e *ExtractYear) Kind() types.Kind { return types.KindInt }

// Substring extracts a 1-based substring of fixed start and length.
type Substring struct {
	E          Scalar
	Start, Len int
}

// Eval implements Scalar.
func (s *Substring) Eval(ctx *Ctx, row Row) types.Value {
	v := s.E.Eval(ctx, row)
	if v.IsNull() {
		return types.Null
	}
	str := v.S()
	from := s.Start - 1
	if from < 0 {
		from = 0
	}
	if from >= len(str) {
		return types.Str("")
	}
	to := from + s.Len
	if to > len(str) {
		to = len(str)
	}
	return types.Str(str[from:to])
}

// Cost implements Scalar.
func (s *Substring) Cost() ExprCost { c := s.E.Cost(); c.Ops++; return c }

// String implements Scalar.
func (s *Substring) String() string {
	return fmt.Sprintf("substring(%s from %d for %d)", s.E.String(), s.Start, s.Len)
}

// Kind implements Scalar.
func (s *Substring) Kind() types.Kind { return types.KindString }

// IsNull tests for SQL NULL.
type IsNull struct {
	E       Scalar
	Negated bool
}

// Eval implements Scalar.
func (i *IsNull) Eval(ctx *Ctx, row Row) types.Value {
	return types.Bool(i.E.Eval(ctx, row).IsNull() != i.Negated)
}

// Cost implements Scalar.
func (i *IsNull) Cost() ExprCost { c := i.E.Cost(); c.Ops++; return c }

// String implements Scalar.
func (i *IsNull) String() string {
	if i.Negated {
		return "(" + i.E.String() + " is not null)"
	}
	return "(" + i.E.String() + " is null)"
}

// Kind implements Scalar.
func (i *IsNull) Kind() types.Kind { return types.KindBool }

// ParamRef reads a parameter slot: an init-plan result or a correlated
// argument bound by the executing sub-plan.
type ParamRef struct {
	Idx int
	K   types.Kind
}

// Eval implements Scalar.
func (p *ParamRef) Eval(ctx *Ctx, _ Row) types.Value {
	if ctx == nil || p.Idx >= len(ctx.Params) {
		return types.Null
	}
	return ctx.Params[p.Idx]
}

// Cost implements Scalar.
func (p *ParamRef) Cost() ExprCost { return ExprCost{} }

// String implements Scalar.
func (p *ParamRef) String() string { return fmt.Sprintf("$%d", p.Idx) }

// Kind implements Scalar.
func (p *ParamRef) Kind() types.Kind { return p.K }

// SubPlanMode selects how a sub-plan result is interpreted.
type SubPlanMode int

const (
	// SubPlanScalar yields the sub-plan's single scalar output.
	SubPlanScalar SubPlanMode = iota
	// SubPlanExists yields TRUE when the sub-plan produces any row.
	SubPlanExists
	// SubPlanNotExists yields TRUE when the sub-plan produces no rows.
	SubPlanNotExists
)

// SubPlan is a correlated sub-plan reference, executed per evaluation with
// argument values from the outer row (PostgreSQL's SubPlan).
type SubPlan struct {
	Idx  int // index into the root node's SubPlans
	Args []Scalar
	Mode SubPlanMode
	K    types.Kind
}

// Eval implements Scalar.
func (s *SubPlan) Eval(ctx *Ctx, row Row) types.Value {
	if ctx == nil || ctx.RunSubPlan == nil {
		return types.Null
	}
	args := make([]types.Value, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.Eval(ctx, row)
	}
	v, err := ctx.RunSubPlan(s.Idx, args)
	if err != nil {
		if ctx.Err == nil {
			ctx.Err = err
		}
		return types.Null
	}
	return v
}

// Cost implements Scalar.
func (s *SubPlan) Cost() ExprCost {
	var c ExprCost
	for _, a := range s.Args {
		c = c.plus(a.Cost())
	}
	c.Ops++ // plan execution cost is charged by the executor itself
	return c
}

// String implements Scalar.
func (s *SubPlan) String() string {
	switch s.Mode {
	case SubPlanExists:
		return fmt.Sprintf("EXISTS(SubPlan %d)", s.Idx)
	case SubPlanNotExists:
		return fmt.Sprintf("NOT EXISTS(SubPlan %d)", s.Idx)
	default:
		return fmt.Sprintf("(SubPlan %d)", s.Idx)
	}
}

// Kind implements Scalar.
func (s *SubPlan) Kind() types.Kind {
	if s.Mode == SubPlanScalar {
		return s.K
	}
	return types.KindBool
}
