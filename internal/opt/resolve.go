// Package opt is the cost-based query optimizer: it turns parsed SQL into
// instrumentable physical plans over the storage engine. It performs name
// resolution, subquery handling (init-plans, correlated sub-plans, and
// EXISTS/IN decorrelation into semi/anti joins), histogram-based
// cardinality estimation under the attribute-independence assumption,
// dynamic-programming join ordering, physical operator selection, and
// PostgreSQL-style costing. Its estimates — not its runtime — are the
// static features the QPP models consume, and its estimation errors are
// faithful stand-ins for the ones the paper measures (Section 5.3.3).
package opt

import (
	"fmt"
	"math/bits"

	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/types"
)

// relInfo is one relation in a query block's FROM list.
type relInfo struct {
	id    int
	alias string // lookup name (alias, or table name)
	table string // base table name; "" for derived tables
	cols  []catalog.Column
	sub   *plan.Node // planned derived table
}

// schemaCol locates one column of an operator's output: which relation it
// came from and its ordinal there.
type schemaCol struct {
	rel  int // relInfo id; -1 for computed columns
	col  int
	name string
	kind types.Kind
}

// schemaOf builds the output schema description of a single relation.
func schemaOf(r *relInfo) []schemaCol {
	out := make([]schemaCol, len(r.cols))
	for i, c := range r.cols {
		out[i] = schemaCol{rel: r.id, col: i, name: c.Name, kind: c.Type}
	}
	return out
}

// planColumns converts a schema to plan node column metadata.
func (p *planner) planColumns(schema []schemaCol) []plan.Column {
	out := make([]plan.Column, len(schema))
	for i, sc := range schema {
		w := p.colWidth(sc)
		out[i] = plan.Column{Name: sc.name, K: sc.kind, Width: w}
	}
	return out
}

// scope resolves column names for one query block, chaining to the outer
// block for correlated references.
type scope struct {
	rels  []*relInfo
	outer *scope
}

// errAmbiguous and errNotFound distinguish resolution failures.
var (
	errAmbiguous = fmt.Errorf("opt: ambiguous column")
	errNotFound  = fmt.Errorf("opt: column not found")
)

// resolve finds (relID, colIdx) for a column reference within this scope
// only (no outer chaining).
func (s *scope) resolve(ref *sql.ColumnRef) (int, int, error) {
	foundRel, foundCol := -1, -1
	for _, r := range s.rels {
		if ref.Table != "" && r.alias != ref.Table {
			continue
		}
		for ci, c := range r.cols {
			if c.Name == ref.Name {
				if foundRel >= 0 {
					return 0, 0, fmt.Errorf("%w: %s", errAmbiguous, ref.SQL())
				}
				foundRel, foundCol = r.id, ci
			}
		}
	}
	if foundRel < 0 {
		return 0, 0, fmt.Errorf("%w: %s", errNotFound, ref.SQL())
	}
	return foundRel, foundCol, nil
}

// relByID returns the relation with the given id.
func (s *scope) relByID(id int) *relInfo {
	for _, r := range s.rels {
		if r.id == id {
			return r
		}
	}
	return nil
}

// relSet is a bitset of relation ids.
type relSet uint64

func (s relSet) has(id int) bool       { return s&(1<<uint(id)) != 0 }
func (s relSet) with(id int) relSet    { return s | 1<<uint(id) }
func (s relSet) union(o relSet) relSet { return s | o }
func (s relSet) count() int            { return bits.OnesCount64(uint64(s)) }

// freeRels returns the set of this block's relations referenced by the
// expression, descending into subqueries (whose own relations shadow
// outer names). Unresolvable names are attributed to no relation — they
// may belong to an enclosing block.
func (p *planner) freeRels(e sql.Expr, sc *scope) relSet {
	var set relSet
	var walkStmt func(stmt *sql.SelectStmt, inner *scope)
	var walk func(e sql.Expr, inner *scope)

	resolveIn := func(ref *sql.ColumnRef, inner *scope) {
		// Try innermost scopes first (shadowing), then sc itself.
		for cur := inner; cur != nil; cur = cur.outer {
			rel, _, err := cur.resolve(ref)
			if err != nil {
				continue
			}
			if cur == sc {
				set = set.with(rel)
			}
			return
		}
	}
	walk = func(e sql.Expr, inner *scope) {
		switch v := e.(type) {
		case *sql.ColumnRef:
			resolveIn(v, inner)
		case *sql.Literal, *sql.Interval:
		case *sql.BinaryExpr:
			walk(v.L, inner)
			walk(v.R, inner)
		case *sql.NotExpr:
			walk(v.E, inner)
		case *sql.NegExpr:
			walk(v.E, inner)
		case *sql.FuncCall:
			for _, a := range v.Args {
				walk(a, inner)
			}
		case *sql.CaseExpr:
			for _, w := range v.Whens {
				walk(w.Cond, inner)
				walk(w.Then, inner)
			}
			if v.Else != nil {
				walk(v.Else, inner)
			}
		case *sql.InExpr:
			walk(v.E, inner)
			for _, item := range v.List {
				walk(item, inner)
			}
			if v.Sub != nil {
				walkStmt(v.Sub, inner)
			}
		case *sql.ExistsExpr:
			walkStmt(v.Sub, inner)
		case *sql.BetweenExpr:
			walk(v.E, inner)
			walk(v.Lo, inner)
			walk(v.Hi, inner)
		case *sql.LikeExpr:
			walk(v.E, inner)
		case *sql.IsNullExpr:
			walk(v.E, inner)
		case *sql.SubqueryExpr:
			walkStmt(v.Sub, inner)
		case *sql.ExtractExpr:
			walk(v.From, inner)
		case *sql.SubstringExpr:
			walk(v.E, inner)
			walk(v.Start, inner)
			walk(v.Len, inner)
		}
	}
	walkStmt = func(stmt *sql.SelectStmt, inner *scope) {
		subScope, err := p.scopeForStmt(stmt, inner)
		if err != nil {
			return
		}
		for _, it := range stmt.Items {
			walk(it.E, subScope)
		}
		if stmt.Where != nil {
			walk(stmt.Where, subScope)
		}
		for _, g := range stmt.GroupBy {
			walk(g, subScope)
		}
		if stmt.Having != nil {
			walk(stmt.Having, subScope)
		}
		for _, j := range stmt.Joins {
			walk(j.On, subScope)
		}
	}
	walk(e, sc)
	return set
}

// scopeForStmt builds a name-resolution-only scope for a statement (used
// by free-variable analysis; derived tables expose their aliases/items).
func (p *planner) scopeForStmt(stmt *sql.SelectStmt, outer *scope) (*scope, error) {
	sc := &scope{outer: outer}
	id := 0
	addItem := func(fi *sql.FromItem) error {
		ri := &relInfo{id: id, alias: fi.Alias}
		id++
		if fi.Table != "" {
			meta, ok := p.db.Schema.Table(fi.Table)
			if !ok {
				return fmt.Errorf("opt: unknown table %q", fi.Table)
			}
			ri.table = fi.Table
			if ri.alias == "" {
				ri.alias = fi.Table
			}
			ri.cols = meta.Columns
		} else {
			cols, err := p.derivedColumns(fi)
			if err != nil {
				return err
			}
			ri.cols = cols
		}
		sc.rels = append(sc.rels, ri)
		return nil
	}
	for i := range stmt.From {
		if err := addItem(&stmt.From[i]); err != nil {
			return nil, err
		}
	}
	for i := range stmt.Joins {
		if err := addItem(&stmt.Joins[i].Item); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// derivedColumns computes the output column names/kinds of a derived table
// without fully planning it (kinds default to best-effort guesses; the
// real kinds are set when the derived table is planned).
func (p *planner) derivedColumns(fi *sql.FromItem) ([]catalog.Column, error) {
	sub := fi.Sub
	subScope, err := p.scopeForStmt(sub, nil)
	if err != nil {
		return nil, err
	}
	cols := make([]catalog.Column, len(sub.Items))
	for i, it := range sub.Items {
		name := it.Alias
		if name == "" {
			if ref, ok := it.E.(*sql.ColumnRef); ok {
				name = ref.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		kind := p.inferKind(it.E, subScope)
		cols[i] = catalog.Column{Name: name, Type: kind}
	}
	for i, a := range fi.ColAliases {
		if i < len(cols) {
			cols[i].Name = a
		}
	}
	return cols, nil
}

// inferKind guesses an expression's type for schema purposes.
func (p *planner) inferKind(e sql.Expr, sc *scope) types.Kind {
	switch v := e.(type) {
	case *sql.ColumnRef:
		for cur := sc; cur != nil; cur = cur.outer {
			if rel, col, err := cur.resolve(v); err == nil {
				return cur.relByID(rel).cols[col].Type
			}
		}
		return types.KindFloat
	case *sql.Literal:
		return v.Value.Kind
	case *sql.BinaryExpr:
		switch v.Op {
		case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
			lk := p.inferKind(v.L, sc)
			rk := p.inferKind(v.R, sc)
			if lk == types.KindDate || rk == types.KindDate {
				return types.KindDate
			}
			if lk == types.KindInt && rk == types.KindInt && v.Op != sql.OpDiv {
				return types.KindInt
			}
			return types.KindFloat
		default:
			return types.KindBool
		}
	case *sql.NegExpr:
		return p.inferKind(v.E, sc)
	case *sql.FuncCall:
		if v.Name == "count" {
			return types.KindInt
		}
		if v.Star || len(v.Args) == 0 {
			return types.KindInt
		}
		if v.Name == "avg" {
			return types.KindFloat
		}
		return p.inferKind(v.Args[0], sc)
	case *sql.CaseExpr:
		return p.inferKind(v.Whens[0].Then, sc)
	case *sql.ExtractExpr:
		return types.KindInt
	case *sql.SubstringExpr:
		return types.KindString
	case *sql.SubqueryExpr:
		subScope, err := p.scopeForStmt(v.Sub, sc)
		if err != nil || len(v.Sub.Items) == 0 {
			return types.KindFloat
		}
		return p.inferKind(v.Sub.Items[0].E, subScope)
	default:
		return types.KindBool
	}
}

// colWidth estimates a column's average byte width from base statistics.
func (p *planner) colWidth(sc schemaCol) float64 {
	if sc.kind == types.KindString {
		return 16
	}
	return 8
}
