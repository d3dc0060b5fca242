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
// came from and its ordinal there. The column's name and kind are the
// relation's (planner.column), so a schema is two small integers a column.
type schemaCol struct {
	rel int32 // relInfo id; -1 for computed columns
	col int32
}

// schemaOf builds the output schema description of a single relation.
func (p *planner) schemaOf(r *relInfo) []schemaCol {
	out := schemaCols.Make(p.mem, len(r.cols))
	for i := range out {
		out[i] = schemaCol{rel: int32(r.id), col: int32(i)}
	}
	return out
}

// column is the relation column sc names; sc must not be computed.
func (p *planner) column(sc schemaCol) catalog.Column {
	return p.relByID[sc.rel].cols[sc.col]
}

// planColumns converts a schema to plan node column metadata.
func (p *planner) planColumns(schema []schemaCol) []plan.Column {
	out := columns.Make(p.mem, len(schema))
	for i, sc := range schema {
		c := p.column(sc)
		out[i] = plan.Column{Name: c.Name, K: c.Type, Width: colWidth(c.Type)}
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
// only (no outer chaining). It fails with errAmbiguous or errNotFound
// bare: most failures are probes that try the next scope, so the caller
// that reports one names the column.
func (s *scope) resolve(ref *sql.ColumnRef) (int, int, error) {
	foundRel, foundCol := -1, -1
	for _, r := range s.rels {
		if ref.Table != "" && r.alias != ref.Table {
			continue
		}
		for ci, c := range r.cols {
			if c.Name == ref.Name {
				if foundRel >= 0 {
					return 0, 0, errAmbiguous
				}
				foundRel, foundCol = r.id, ci
			}
		}
	}
	if foundRel < 0 {
		return 0, 0, errNotFound
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
	p.addFreeRels(&set, e, sc, sc)
	return set
}

// addFreeRels adds to *set the relations of sc that e references when its
// names resolve in inner, an innermost-first chain of scopes ending in sc.
func (p *planner) addFreeRels(set *relSet, e sql.Expr, inner, sc *scope) {
	sql.Inspect(e, func(n sql.Expr) bool {
		var sub *sql.SelectStmt
		switch v := n.(type) {
		case *sql.ColumnRef:
			// Try innermost scopes first (shadowing), then sc itself.
			for cur := inner; cur != nil; cur = cur.outer {
				if rel, _, err := cur.resolve(v); err == nil {
					if cur == sc {
						*set = set.with(rel)
					}
					break
				}
			}
		case *sql.InExpr:
			sub = v.Sub
		case *sql.ExistsExpr:
			sub = v.Sub
		case *sql.SubqueryExpr:
			sub = v.Sub
		}
		if sub == nil {
			return true
		}
		subScope, err := p.scopeForStmt(sub, inner)
		if err != nil {
			return true
		}
		for _, it := range sub.Items {
			p.addFreeRels(set, it.E, subScope, sc)
		}
		p.addFreeRels(set, sub.Where, subScope, sc)
		for _, g := range sub.GroupBy {
			p.addFreeRels(set, g, subScope, sc)
		}
		p.addFreeRels(set, sub.Having, subScope, sc)
		for _, j := range sub.Joins {
			p.addFreeRels(set, j.On, subScope, sc)
		}
		return true
	})
}

// scopeForStmt builds a name-resolution-only scope for a statement (used
// by free-variable analysis; derived tables expose their aliases/items).
// Its derived-table columns carry names only: nothing reads a kind from
// such a scope.
func (p *planner) scopeForStmt(stmt *sql.SelectStmt, outer *scope) (*scope, error) {
	sc := scopes.New(p.mem, scope{outer: outer})
	id := 0
	addItem := func(fi *sql.FromItem) error {
		ri := relInfos.New(p.mem, relInfo{id: id, alias: fi.Alias})
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
			ri.cols = catColumns.Make(p.mem, len(fi.Sub.Items))
			for i, it := range fi.Sub.Items {
				ri.cols[i].Name = itemName(it, i)
			}
			renameColumns(ri.cols, fi.ColAliases)
		}
		sc.rels = relLists.Append(p.mem, sc.rels, ri)
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

// itemName is the output column name of select item i: its alias, the
// name of a bare column reference, or col<i+1>.
func itemName(it sql.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.E.(*sql.ColumnRef); ok {
		return ref.Name
	}
	return fmt.Sprintf("col%d", i+1)
}

// renameColumns applies a derived table's column aliases, as in
// "… ) as c_orders (c_custkey, c_count)".
func renameColumns(cols []catalog.Column, aliases []string) {
	for i, a := range aliases {
		if i < len(cols) {
			cols[i].Name = a
		}
	}
}

// colWidth estimates the average byte width of a column of kind k. Join
// layouts use it; base-table scans carry the measured widths of
// catalog.TableStats.ScanCols instead.
func colWidth(k types.Kind) float64 {
	if k == types.KindString {
		return 16
	}
	return 8
}
