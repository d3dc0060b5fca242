package sql

import (
	"fmt"
	"strings"

	"qpp/internal/types"
)

// Expr is any SQL expression node.
type Expr interface {
	// SQL renders the expression back to SQL text (used in EXPLAIN output
	// and round-trip tests).
	SQL() string
}

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string // "" when unqualified
	Name  string
}

// SQL implements Expr.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct{ Value types.Value }

// SQL implements Expr.
func (l *Literal) SQL() string {
	switch l.Value.Kind() {
	case types.KindString:
		return "'" + strings.ReplaceAll(l.Value.S(), "'", "''") + "'"
	case types.KindDate:
		return "date '" + l.Value.String() + "'"
	default:
		return l.Value.String()
	}
}

// Interval is a calendar interval literal, e.g. interval '3' month.
type Interval struct {
	N    int
	Unit string // "day", "month", "year"
}

// SQL implements Expr.
func (iv *Interval) SQL() string { return fmt.Sprintf("interval '%d' %s", iv.N, iv.Unit) }

// BinaryOp enumerates binary operators.
type BinaryOp string

// Binary operators.
const (
	OpAdd BinaryOp = "+"
	OpSub BinaryOp = "-"
	OpMul BinaryOp = "*"
	OpDiv BinaryOp = "/"
	OpEq  BinaryOp = "="
	OpNe  BinaryOp = "<>"
	OpLt  BinaryOp = "<"
	OpLe  BinaryOp = "<="
	OpGt  BinaryOp = ">"
	OpGe  BinaryOp = ">="
	OpAnd BinaryOp = "and"
	OpOr  BinaryOp = "or"
)

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// SQL implements Expr.
func (b *BinaryExpr) SQL() string {
	return "(" + b.L.SQL() + " " + string(b.Op) + " " + b.R.SQL() + ")"
}

// NotExpr negates a boolean expression.
type NotExpr struct{ E Expr }

// SQL implements Expr.
func (n *NotExpr) SQL() string { return "(not " + n.E.SQL() + ")" }

// NegExpr is unary numeric negation.
type NegExpr struct{ E Expr }

// SQL implements Expr.
func (n *NegExpr) SQL() string { return "(-" + n.E.SQL() + ")" }

// FuncCall is a function or aggregate invocation. Star marks count(*);
// Distinct marks aggregates over distinct inputs, e.g. count(distinct x).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// SQL implements Expr.
func (f *FuncCall) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "distinct "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// AggregateFuncs lists the supported aggregate function names.
var AggregateFuncs = map[string]bool{"sum": true, "avg": true, "count": true, "min": true, "max": true}

// IsAggregate reports whether the call is to an aggregate function.
func (f *FuncCall) IsAggregate() bool { return AggregateFuncs[f.Name] }

// WhenClause is one WHEN ... THEN ... arm of a CASE expression.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // may be nil (SQL: NULL)
}

// SQL implements Expr.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("case")
	for _, w := range c.Whens {
		sb.WriteString(" when " + w.Cond.SQL() + " then " + w.Then.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" else " + c.Else.SQL())
	}
	sb.WriteString(" end")
	return sb.String()
}

// InExpr is expr [NOT] IN (list) or expr [NOT] IN (subquery).
type InExpr struct {
	E       Expr
	List    []Expr
	Sub     *SelectStmt
	Negated bool
}

// SQL implements Expr.
func (in *InExpr) SQL() string {
	op := " in "
	if in.Negated {
		op = " not in "
	}
	if in.Sub != nil {
		return "(" + in.E.SQL() + op + "(" + in.Sub.SQL() + "))"
	}
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.SQL()
	}
	return "(" + in.E.SQL() + op + "(" + strings.Join(items, ", ") + "))"
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub     *SelectStmt
	Negated bool
}

// SQL implements Expr.
func (e *ExistsExpr) SQL() string {
	if e.Negated {
		return "(not exists (" + e.Sub.SQL() + "))"
	}
	return "(exists (" + e.Sub.SQL() + "))"
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negated   bool
}

// SQL implements Expr.
func (b *BetweenExpr) SQL() string {
	op := " between "
	if b.Negated {
		op = " not between "
	}
	return "(" + b.E.SQL() + op + b.Lo.SQL() + " and " + b.Hi.SQL() + ")"
}

// LikeExpr is expr [NOT] LIKE pattern.
type LikeExpr struct {
	E       Expr
	Pattern string
	Negated bool
}

// SQL implements Expr.
func (l *LikeExpr) SQL() string {
	op := " like "
	if l.Negated {
		op = " not like "
	}
	return "(" + l.E.SQL() + op + "'" + l.Pattern + "')"
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E       Expr
	Negated bool
}

// SQL implements Expr.
func (i *IsNullExpr) SQL() string {
	if i.Negated {
		return "(" + i.E.SQL() + " is not null)"
	}
	return "(" + i.E.SQL() + " is null)"
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct{ Sub *SelectStmt }

// SQL implements Expr.
func (s *SubqueryExpr) SQL() string { return "(" + s.Sub.SQL() + ")" }

// ExtractExpr is EXTRACT(field FROM expr); only YEAR is required by TPC-H.
type ExtractExpr struct {
	Field string
	From  Expr
}

// SQL implements Expr.
func (e *ExtractExpr) SQL() string { return "extract(" + e.Field + " from " + e.From.SQL() + ")" }

// SubstringExpr is SUBSTRING(expr FROM start FOR length).
type SubstringExpr struct {
	E          Expr
	Start, Len Expr
}

// SQL implements Expr.
func (s *SubstringExpr) SQL() string {
	return "substring(" + s.E.SQL() + " from " + s.Start.SQL() + " for " + s.Len.SQL() + ")"
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	E     Expr
	Alias string
}

// FromItem is a base table or derived table in the FROM clause.
type FromItem struct {
	Table string      // base table name, or "" for a derived table
	Sub   *SelectStmt // derived table
	Alias string
	// ColAliases optionally renames the derived table's columns, as in
	// "… ) as c_orders (c_custkey, c_count)".
	ColAliases []string
}

// JoinType enumerates join syntax variants.
type JoinType int

const (
	// JoinInner is INNER JOIN.
	JoinInner JoinType = iota
	// JoinLeft is LEFT OUTER JOIN.
	JoinLeft
)

// Join is an explicit JOIN clause attached to the preceding FROM item(s).
type Join struct {
	Type JoinType
	Item FromItem
	On   Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// SQL renders the statement back to SQL text.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("select ")
	if s.Distinct {
		sb.WriteString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.E.SQL())
		if it.Alias != "" {
			sb.WriteString(" as " + it.Alias)
		}
	}
	sb.WriteString(" from ")
	for i, f := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.sql())
	}
	for _, j := range s.Joins {
		if j.Type == JoinLeft {
			sb.WriteString(" left outer join ")
		} else {
			sb.WriteString(" join ")
		}
		sb.WriteString(j.Item.sql())
		sb.WriteString(" on " + j.On.SQL())
	}
	if s.Where != nil {
		sb.WriteString(" where " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" having " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.E.SQL())
			if o.Desc {
				sb.WriteString(" desc")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " limit %d", s.Limit)
	}
	return sb.String()
}

func (f *FromItem) sql() string {
	var sb strings.Builder
	if f.Sub != nil {
		sb.WriteString("(" + f.Sub.SQL() + ")")
	} else {
		sb.WriteString(f.Table)
	}
	if f.Alias != "" {
		sb.WriteString(" as " + f.Alias)
	}
	if len(f.ColAliases) > 0 {
		sb.WriteString(" (" + strings.Join(f.ColAliases, ", ") + ")")
	}
	return sb.String()
}
