package opt

import (
	"fmt"
	"math"

	"qpp/internal/arena"
	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
	"qpp/internal/types"
)

// planner carries the state of planning one statement (including all of
// its subqueries): relation registry, parameter slots, and the collected
// init-plans / sub-plans destined for the root node.
type planner struct {
	db           *storage.Database
	mem          *arena.Arena // where the plan and the scratch come from; nil: the heap
	relByID      []*relInfo   // indexed by id; an id's slot exists from newRelID on
	workMemPages int

	initPlans   []*plan.Node
	initSlots   []int
	subPlans    []*plan.Node
	subArgSlots [][]int
	numParams   int

	// rec, when non-nil, collects the join-order merge trace of every
	// query block; replay, when non-nil, substitutes recorded merges for
	// the DP search (see trace.go). replayIdx is the next block to consume.
	rec       *JoinTrace
	replay    *JoinTrace
	replayIdx int

	// verify, when non-nil, is shown every searched block — its inputs,
	// the merges chosen and the tree built from them — and may reject it.
	// Production never sets it; the differential tests do, to run the
	// node-building reference search they keep on the very same inputs.
	verify func(scans []*joinTree, edges []joinEdge, steps []JoinStep, tree *joinTree) error
}

// Plan compiles a parsed SELECT into a costed physical plan over db.
func Plan(db *storage.Database, stmt *sql.SelectStmt) (*plan.Node, error) {
	return PlanIn(nil, db, stmt)
}

// PlanIn is Plan with the plan and the planner's scratch carved from a
// (the heap when a is nil): the plan is valid until a is released.
func PlanIn(a *arena.Arena, db *storage.Database, stmt *sql.SelectStmt) (*plan.Node, error) {
	return newPlanner(a, db).run(stmt)
}

// newPlanner returns a planner over db allocating from a.
func newPlanner(a *arena.Arena, db *storage.Database) *planner {
	return planners.New(a, planner{db: db, mem: a, workMemPages: 256})
}

// run plans the statement and attaches the collected init-plan / sub-plan
// registries to the root.
func (p *planner) run(stmt *sql.SelectStmt) (*plan.Node, error) {
	root, err := p.planSelect(stmt, nil)
	if err != nil {
		return nil, err
	}
	if p.numParams > 0 || len(p.initPlans) > 0 || len(p.subPlans) > 0 {
		root.Root = rootPayloads.New(p.mem, plan.RootPayload{
			InitPlans: p.initPlans, InitPlanSlots: p.initSlots,
			SubPlans: p.subPlans, SubPlanArgSlots: p.subArgSlots,
			NumParams: p.numParams,
		})
	}
	return root, nil
}

// PlanSQL parses and plans a SQL string.
func PlanSQL(db *storage.Database, query string) (*plan.Node, error) {
	return PlanSQLIn(nil, db, query)
}

// PlanSQLIn is PlanSQL with the statement and the plan carved from a (the
// heap when a is nil): both are valid until a is released.
func PlanSQLIn(a *arena.Arena, db *storage.Database, query string) (*plan.Node, error) {
	stmt, err := sql.ParseIn(a, query)
	if err != nil {
		return nil, err
	}
	return PlanIn(a, db, stmt)
}

func (p *planner) allocParam() int {
	s := p.numParams
	p.numParams++
	return s
}

func (p *planner) newRelID() int {
	id := len(p.relByID)
	if id >= 64 {
		panic("opt: too many relations in one statement")
	}
	p.relByID = relLists.Append(p.mem, p.relByID, nil)
	return id
}

// semiEntry is a decorrelated EXISTS / IN subquery awaiting application as
// a semi or anti join on top of the base join tree.
type semiEntry struct {
	anti      bool
	outerKeys []sql.Expr // resolve in the enclosing block's scope
	sub       *plan.Node // planned subquery; output columns are the keys
}

// leftJoinSpec is a LEFT OUTER JOIN of a query block awaiting
// application on top of its inner join tree.
type leftJoinSpec struct {
	ri *relInfo
	on sql.Expr
}

// planSelect plans one query block. corr is non-nil when this block is a
// correlated subquery of an enclosing block.
func (p *planner) planSelect(stmt *sql.SelectStmt, corr *subCtx) (*plan.Node, error) {
	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("opt: empty select list")
	}
	sc := scopes.New(p.mem, scope{})
	if corr != nil {
		sc.outer = corr.outerScope
	}

	var dpRels []*relInfo
	var lefts []leftJoinSpec
	var extraConj []sql.Expr

	addRel := func(fi *sql.FromItem) (*relInfo, error) {
		ri := relInfos.New(p.mem, relInfo{id: p.newRelID(), alias: fi.Alias})
		if fi.Table != "" {
			meta, ok := p.db.Schema.Table(fi.Table)
			if !ok {
				return nil, fmt.Errorf("opt: unknown table %q", fi.Table)
			}
			ri.table = fi.Table
			if ri.alias == "" {
				ri.alias = fi.Table
			}
			ri.cols = meta.Columns
		} else {
			sub, err := p.planSelect(fi.Sub, nil)
			if err != nil {
				return nil, err
			}
			ri.sub = sub
			cols := catColumns.Make(p.mem, len(sub.Cols))
			for i, c := range sub.Cols {
				cols[i] = catalog.Column{Name: c.Name, Type: c.K}
			}
			renameColumns(cols, fi.ColAliases)
			ri.cols = cols
		}
		p.relByID[ri.id] = ri
		sc.rels = relLists.Append(p.mem, sc.rels, ri)
		return ri, nil
	}

	for i := range stmt.From {
		ri, err := addRel(&stmt.From[i])
		if err != nil {
			return nil, err
		}
		dpRels = relLists.Append(p.mem, dpRels, ri)
	}
	for i := range stmt.Joins {
		j := &stmt.Joins[i]
		ri, err := addRel(&j.Item)
		if err != nil {
			return nil, err
		}
		if j.Type == sql.JoinLeft {
			lefts = leftLists.Append(p.mem, lefts, leftJoinSpec{ri: ri, on: j.On})
		} else {
			dpRels = relLists.Append(p.mem, dpRels, ri)
			extraConj = sqlExprs.Append(p.mem, extraConj, splitConjuncts(p.mem, j.On)...)
		}
	}

	var dpSet relSet
	for _, ri := range dpRels {
		dpSet = dpSet.with(ri.id)
	}

	// Classify WHERE conjuncts. locals is indexed by relation id: every
	// relation of this block has one by now.
	conjuncts := sqlExprs.Append(p.mem, splitConjuncts(p.mem, stmt.Where), extraConj...)
	locals := sqlExprLists.Make(p.mem, len(p.relByID))
	var edges []joinEdge
	var semis []semiEntry
	var residuals []sql.Expr

	for _, c := range conjuncts {
		if ex, ok := c.(*sql.ExistsExpr); ok {
			if se, ok := p.decorrelateExists(ex, sc); ok {
				semis = semiLists.Append(p.mem, semis, se)
				continue
			}
			residuals = sqlExprs.Append(p.mem, residuals, c)
			continue
		}
		if in, ok := c.(*sql.InExpr); ok && in.Sub != nil {
			se, err := p.decorrelateIn(in, sc)
			if err != nil {
				return nil, err
			}
			semis = semiLists.Append(p.mem, semis, se)
			continue
		}
		rels := p.freeRels(c, sc)
		if rels&^dpSet != 0 {
			// Touches a LEFT-joined relation: apply after the outer join.
			residuals = sqlExprs.Append(p.mem, residuals, c)
			continue
		}
		switch rels.count() {
		case 0:
			residuals = sqlExprs.Append(p.mem, residuals, c)
		case 1:
			id := firstRel(rels)
			locals[id] = sqlExprs.Append(p.mem, locals[id], c)
		case 2:
			if e, ok := p.asEquiEdge(c, sc); ok {
				edges = joinEdges.Append(p.mem, edges, e)
			} else {
				residuals = sqlExprs.Append(p.mem, residuals, c)
			}
		default:
			residuals = sqlExprs.Append(p.mem, residuals, c)
		}
	}

	// Base scans and join ordering.
	scans := treeLists.Make(p.mem, len(dpRels))[:0]
	for _, ri := range dpRels {
		t, err := p.buildScan(ri, locals[ri.id], sc, corr)
		if err != nil {
			return nil, err
		}
		scans = append(scans, t)
	}
	tree, err := p.orderJoins(scans, edges)
	if err != nil {
		return nil, err
	}

	// Outer joins, then semi/anti joins from EXISTS/IN.
	for _, lj := range lefts {
		tree, err = p.applyLeftJoin(tree, lj.ri, lj.on, sc, corr)
		if err != nil {
			return nil, err
		}
	}
	for _, se := range semis {
		tree, err = p.applySemi(tree, se, sc, corr)
		if err != nil {
			return nil, err
		}
	}

	// Residual predicates at the top of the join tree.
	if len(residuals) > 0 {
		b := p.newBinder(sc, tree.schema, corr)
		var f plan.Scalar
		sel := 1.0
		for _, c := range residuals {
			s, err := b.bind(c)
			if err != nil {
				return nil, err
			}
			f = andScalars(p.mem, f, s)
			sel *= p.filterSelectivity(c, sc)
		}
		tree.node.Filter = andScalars(p.mem, tree.node.Filter, f)
		tree.node.Est.Rows = max(1, tree.node.Est.Rows*sel)
	}

	// Aggregation / projection.
	outNode, out, err := p.planOutput(stmt, tree, sc, corr)
	if err != nil {
		return nil, err
	}

	// DISTINCT via hashed grouping over the projected columns.
	if stmt.Distinct {
		groups := scalars.Make(p.mem, len(outNode.Cols))
		for i, c := range outNode.Cols {
			groups[i] = p.col(plan.Col{Idx: i, K: c.K, Name: c.Name})
		}
		d := p.node(plan.Node{
			Op: plan.OpHashAggregate, Children: p.children(outNode),
			Cols: outNode.Cols, Agg: aggPayloads.New(p.mem, plan.AggPayload{GroupBy: groups}),
		})
		p.costAggregate(d, max(1, outNode.Est.Rows/2))
		outNode = d
	}

	// ORDER BY, LIMIT.
	if len(stmt.OrderBy) > 0 {
		keys := sortKeys.Make(p.mem, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			idx, ok := out.index(o.E)
			if !ok {
				return nil, fmt.Errorf("opt: ORDER BY expression %q must appear in the select list", o.E.SQL())
			}
			keys[i] = plan.SortKey{Col: idx, Desc: o.Desc}
		}
		s := p.node(plan.Node{Op: plan.OpSort, Children: p.children(outNode), Cols: outNode.Cols, Sort: sortPayloads.New(p.mem, plan.SortPayload{Keys: keys})})
		p.costSort(s)
		outNode = s
	}
	if stmt.Limit >= 0 {
		l := p.node(plan.Node{Op: plan.OpLimit, Children: p.children(outNode), Cols: outNode.Cols, LimitN: stmt.Limit})
		p.costLimit(l)
		outNode = l
	}
	return outNode, nil
}

// containsSubquery reports whether the expression embeds any subquery.
func containsSubquery(e sql.Expr) bool {
	found := false
	sql.Inspect(e, func(n sql.Expr) bool {
		switch v := n.(type) {
		case *sql.SubqueryExpr, *sql.ExistsExpr:
			found = true
		case *sql.InExpr:
			found = found || v.Sub != nil
		}
		return !found
	})
	return found
}

// output is a query block's select list as planOutput bound it: what its
// ORDER BY keys resolve against.
type output struct {
	names   []string      // each item's output column name
	scalars []plan.Scalar // each item, bound
	b       *binder       // binds an ORDER BY expression as the items were
}

// index is the select-list position of ORDER BY expression e: an alias
// match first, then a structural match against the bound items.
func (o *output) index(e sql.Expr) (int, bool) {
	if ref, ok := e.(*sql.ColumnRef); ok && ref.Table == "" {
		for i, n := range o.names {
			if n == ref.Name {
				return i, true
			}
		}
	}
	s, err := o.b.bind(e)
	if err != nil {
		return 0, false
	}
	for i, is := range o.scalars {
		if plan.SameText(is, s) {
			return i, true
		}
	}
	return 0, false
}

// aggScope is what an aggregating block's output binder maps onto
// aggregate-output columns: the group expressions, the aggregate calls
// met so far (HAVING's first, then the items'), and the binder of the
// join output beneath, which binds aggregate arguments.
type aggScope struct {
	join   *binder
	groups []plan.Scalar
	specs  []plan.AggSpec
}

// bindAggregate intercepts, for an aggregating block's output binder b,
// aggregate calls and group-expression matches, mapping them to
// aggregate-output columns; handled is false for anything else, which
// binds structurally.
func (b *binder) bindAggregate(e sql.Expr) (s plan.Scalar, handled bool, err error) {
	p, g := b.p, b.agg
	if fc, ok := e.(*sql.FuncCall); ok && fc.IsAggregate() {
		var arg plan.Scalar
		if !fc.Star && len(fc.Args) > 0 {
			a, err := g.join.bind(fc.Args[0])
			if err != nil {
				return nil, true, err
			}
			arg = a
		}
		spec := plan.AggSpec{Func: aggFuncOf(fc.Name), Arg: arg, Distinct: fc.Distinct}
		spec.K = aggResultKind(spec)
		for j, s := range g.specs {
			if s.SameText(spec) {
				return p.col(plan.Col{Idx: len(g.groups) + j, K: s.K}), true, nil
			}
		}
		g.specs = aggSpecs.Append(p.mem, g.specs, spec)
		b.schema = p.computedSchema(len(g.groups) + len(g.specs))
		return p.col(plan.Col{Idx: len(g.groups) + len(g.specs) - 1, K: spec.K}), true, nil
	}
	// Whole-expression match against a group expression. Skip expressions
	// containing aggregates or subqueries: binding them here would be wrong
	// (aggregates) or cause duplicate init-plan registration (subqueries);
	// recursion handles both.
	if exprHasAgg(e) || containsSubquery(e) {
		return nil, false, nil
	}
	if s, err := g.join.bind(e); err == nil {
		for i, gs := range g.groups {
			if plan.SameText(gs, s) {
				return p.col(plan.Col{Idx: i, K: gs.Kind()}), true, nil
			}
		}
		if _, isRef := e.(*sql.ColumnRef); isRef {
			return nil, true, fmt.Errorf("opt: column %q must appear in GROUP BY or an aggregate", e.SQL())
		}
	}
	return nil, false, nil
}

// computedSchema is the schema of n computed columns, an aggregate's
// output.
func (p *planner) computedSchema(n int) []schemaCol {
	cols := schemaCols.Make(p.mem, n)
	for i := range cols {
		cols[i] = schemaCol{rel: -1, col: int32(i)}
	}
	return cols
}

// planOutput handles grouping, HAVING and projection, returning the output
// node and the bound select list ORDER BY resolves against.
func (p *planner) planOutput(stmt *sql.SelectStmt, tree *joinTree, sc *scope, corr *subCtx) (*plan.Node, output, error) {
	joinBinder := p.newBinder(sc, tree.schema, corr)

	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if exprHasAgg(it.E) {
			hasAgg = true
		}
	}

	out := output{names: strs.Make(p.mem, len(stmt.Items)), b: joinBinder}
	for i, it := range stmt.Items {
		out.names[i] = itemName(it, i)
	}

	var outNode *plan.Node
	if hasAgg {
		// Bind group expressions against the join output.
		g := aggScopes.New(p.mem, aggScope{join: joinBinder, groups: scalars.Make(p.mem, len(stmt.GroupBy))})
		for i, ge := range stmt.GroupBy {
			s, err := joinBinder.bind(ge)
			if err != nil {
				return nil, output{}, err
			}
			g.groups[i] = s
		}
		aggBinder := p.newBinder(sc, p.computedSchema(len(g.groups)), corr)
		aggBinder.agg = g
		out.b = aggBinder

		// HAVING first (may add aggregate specs), then items.
		var having plan.Scalar
		if stmt.Having != nil {
			h, err := aggBinder.bind(stmt.Having)
			if err != nil {
				return nil, output{}, err
			}
			having = h
		}
		out.scalars = scalars.Make(p.mem, len(stmt.Items))
		for i, it := range stmt.Items {
			s, err := aggBinder.bind(it.E)
			if err != nil {
				return nil, output{}, err
			}
			out.scalars[i] = s
		}

		inputRows := tree.node.Est.Rows
		groupsEst := p.estimateGroups(stmt.GroupBy, sc, inputRows)
		aggCols := columns.Make(p.mem, len(g.groups)+len(g.specs))
		for i, gs := range g.groups {
			name := ""
			if ref, ok := stmt.GroupBy[i].(*sql.ColumnRef); ok {
				name = ref.Name
			}
			w := 8.0
			if gs.Kind() == types.KindString {
				w = 16
			}
			aggCols[i] = plan.Column{Name: name, K: gs.Kind(), Width: w}
		}
		for j, s := range g.specs {
			aggCols[len(g.groups)+j] = plan.Column{Name: s.String(), K: s.K, Width: 8}
		}

		// Hashed vs sorted grouping, by whether the hash table fits in
		// work_mem (the PostgreSQL 8.4 rule).
		child := tree.node
		op := plan.OpHashAggregate
		if len(stmt.GroupBy) == 0 {
			op = plan.OpAggregate
		} else {
			groupBytes := groupsEst * (aggWidth(aggCols) + 64)
			if groupBytes > p.workBytes() {
				op = plan.OpGroupAgg
				// Sort the join output on the group keys first.
				keys := sortKeys.Make(p.mem, len(g.groups))[:0]
				ok := true
				for _, gs := range g.groups {
					col, isCol := gs.(*plan.Col)
					if !isCol {
						ok = false
						break
					}
					keys = append(keys, plan.SortKey{Col: col.Idx})
				}
				if ok {
					s := p.node(plan.Node{Op: plan.OpSort, Children: p.children(child), Cols: child.Cols, Sort: sortPayloads.New(p.mem, plan.SortPayload{Keys: keys})})
					p.costSort(s)
					child = s
				} else {
					op = plan.OpHashAggregate
				}
			}
		}
		agg := p.node(plan.Node{
			Op: op, Children: p.children(child),
			Cols: aggCols, Agg: aggPayloads.New(p.mem, plan.AggPayload{GroupBy: g.groups, Aggs: g.specs}), Filter: having,
		})
		p.costAggregate(agg, groupsEst)
		if having != nil {
			agg.Est.Rows = max(1, agg.Est.Rows*defaultRangeSel)
		}
		outNode = agg
	} else {
		out.scalars = scalars.Make(p.mem, len(stmt.Items))
		for i, it := range stmt.Items {
			s, err := joinBinder.bind(it.E)
			if err != nil {
				return nil, output{}, err
			}
			out.scalars[i] = s
		}
		outNode = tree.node
	}

	// Projection node unless the items are exactly the input columns.
	identity := len(out.scalars) == len(outNode.Cols)
	if identity {
		for i, s := range out.scalars {
			col, ok := s.(*plan.Col)
			if !ok || col.Idx != i {
				identity = false
				break
			}
		}
	}
	if identity {
		// Rename in place; the node is fresh (agg) or a scan/join whose
		// column names remain valid.
		cols := columns.Clone(p.mem, outNode.Cols)
		for i := range cols {
			cols[i].Name = out.names[i]
		}
		outNode.Cols = cols
	} else {
		cols := columns.Make(p.mem, len(out.scalars))
		var ops float64
		for i, s := range out.scalars {
			w := 8.0
			if s.Kind() == types.KindString {
				w = 16
			}
			cols[i] = plan.Column{Name: out.names[i], K: s.Kind(), Width: w}
			ops += s.Cost().Ops
		}
		proj := p.node(plan.Node{Op: plan.OpResult, Children: p.children(outNode), Cols: cols, Proj: projPayloads.New(p.mem, plan.ProjPayload{Exprs: out.scalars})})
		p.costResult(proj, ops, 1)
		outNode = proj
	}
	return outNode, out, nil
}

func aggWidth(cols []plan.Column) float64 {
	var w float64
	for _, c := range cols {
		w += c.Width
	}
	return w
}

// estimateGroups predicts the number of groups: the product of per-column
// NDVs (or a default for computed keys), clamped by the input rows — the
// independence-style assumption PostgreSQL also makes.
func (p *planner) estimateGroups(groupBy []sql.Expr, sc *scope, inputRows float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	est := 1.0
	for _, g := range groupBy {
		if cs := p.statsFor(g, sc); cs != nil && cs.NDV > 0 {
			est *= cs.NDV
		} else if _, ok := g.(*sql.ExtractExpr); ok {
			est *= 7 // years in the TPC-H date range
		} else {
			est *= 50
		}
	}
	return max(1, min(est, inputRows))
}

// buildScan makes the scan fragment for one relation with its local
// predicates attached and costed. An equality predicate on the leading
// primary-key column against a constant or correlation parameter selects
// an index scan (the shape PostgreSQL produces for correlated sub-plans
// like Q2's).
func (p *planner) buildScan(ri *relInfo, localConj []sql.Expr, sc *scope, corr *subCtx) (*joinTree, error) {
	schema := p.schemaOf(ri)
	b := p.newBinder(sc, schema, corr)

	// Look for a usable PK-leading equality predicate first.
	var lookupKey plan.Scalar
	lookupIdx := -1
	if ri.table != "" {
		meta, _ := p.db.Schema.Table(ri.table)
		if meta != nil && len(meta.PrimaryKey) > 0 {
			pkCol := meta.PrimaryKey[0]
			for i, c := range localConj {
				be, ok := c.(*sql.BinaryExpr)
				if !ok || be.Op != sql.OpEq {
					continue
				}
				keySide, valSide := be.L, be.R
				for swap := 0; swap < 2; swap++ {
					if ref, ok := keySide.(*sql.ColumnRef); ok {
						if rel, col, err := sc.resolve(ref); err == nil && rel == ri.id && col == pkCol {
							if s, err := b.bind(valSide); err == nil && s.Cost().Ops == 0 && !containsCol(s) {
								lookupKey = s
								lookupIdx = i
							}
						}
					}
					keySide, valSide = valSide, keySide
				}
				if lookupIdx >= 0 {
					break
				}
			}
		}
	}

	var filter plan.Scalar
	sel := 1.0
	var filterOps float64
	for i, c := range localConj {
		if i == lookupIdx {
			continue
		}
		s, err := b.bind(c)
		if err != nil {
			return nil, err
		}
		filter = andScalars(p.mem, filter, s)
		sel *= p.filterSelectivity(c, sc)
		filterOps += s.Cost().Ops
	}
	sel = clampSel(sel)

	if ri.table != "" {
		st, ok := p.db.TableStats(ri.table)
		if !ok {
			return nil, fmt.Errorf("opt: no statistics for table %q", ri.table)
		}
		if len(st.ScanCols) != len(ri.cols) {
			return nil, fmt.Errorf("opt: statistics of table %q describe %d columns, the table has %d", ri.table, len(st.ScanCols), len(ri.cols))
		}
		if lookupKey != nil {
			meta, _ := p.db.Schema.Table(ri.table)
			node := p.node(plan.Node{
				Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias, Filter: filter, Cols: st.ScanCols,
				Lookup: lookups.New(p.mem, plan.LookupPayload{Consts: scalars.Clone(p.mem, []plan.Scalar{lookupKey})}),
			})
			p.costIndexScan(node, p.pkMatches(ri, meta.PrimaryKey[0], st), float64(st.Pages), sel)
			return p.tree(joinTree{set: relSet(0).with(ri.id), node: node, schema: schema}), nil
		}
		node := p.node(plan.Node{Op: plan.OpSeqScan, Table: ri.table, Alias: ri.alias, Filter: filter, Cols: st.ScanCols})
		p.costSeqScan(node, float64(st.RowCount), float64(st.Pages), sel, filterOps)
		return p.tree(joinTree{set: relSet(0).with(ri.id), node: node, schema: schema}), nil
	}
	node := p.node(plan.Node{Op: plan.OpSubqueryScan, Alias: ri.alias, Children: p.children(ri.sub), Filter: filter})
	cols := columns.Make(p.mem, len(ri.cols))
	for i, c := range ri.cols {
		w := 8.0
		if c.Type == types.KindString {
			w = 16
		}
		cols[i] = plan.Column{Name: c.Name, K: c.Type, Width: w}
	}
	node.Cols = cols
	p.costSubqueryScan(node, sel, filterOps)
	return p.tree(joinTree{set: relSet(0).with(ri.id), node: node, schema: schema}), nil
}

// asEquiEdge recognizes colref = colref conjuncts across two relations.
func (p *planner) asEquiEdge(c sql.Expr, sc *scope) (joinEdge, bool) {
	be, ok := c.(*sql.BinaryExpr)
	if !ok || be.Op != sql.OpEq {
		return joinEdge{}, false
	}
	lRef, lok := be.L.(*sql.ColumnRef)
	rRef, rok := be.R.(*sql.ColumnRef)
	if !lok || !rok {
		return joinEdge{}, false
	}
	lRel, lCol, lerr := sc.resolve(lRef)
	rRel, rCol, rerr := sc.resolve(rRef)
	if lerr != nil || rerr != nil || lRel == rRel {
		return joinEdge{}, false
	}
	return joinEdge{lRel: lRel, lCol: lCol, rRel: rRel, rCol: rCol}, true
}

// applyLeftJoin attaches a LEFT OUTER JOIN to the current tree.
func (p *planner) applyLeftJoin(tree *joinTree, ri *relInfo, on sql.Expr, sc *scope, corr *subCtx) (*joinTree, error) {
	conjs := splitConjuncts(p.mem, on)
	var rightLocal []sql.Expr
	var keysConj []joinEdge
	var filterConj []sql.Expr
	riSet := relSet(0).with(ri.id)
	for _, c := range conjs {
		rels := p.freeRels(c, sc)
		switch {
		case rels == riSet:
			// Inner-side-only ON predicates can be pushed into the scan
			// without changing LEFT JOIN semantics.
			rightLocal = sqlExprs.Append(p.mem, rightLocal, c)
		case rels.count() == 2 && rels.has(ri.id):
			if e, ok := p.asEquiEdge(c, sc); ok {
				keysConj = joinEdges.Append(p.mem, keysConj, e)
			} else {
				filterConj = sqlExprs.Append(p.mem, filterConj, c)
			}
		default:
			filterConj = sqlExprs.Append(p.mem, filterConj, c)
		}
	}
	right, err := p.buildScan(ri, rightLocal, sc, corr)
	if err != nil {
		return nil, err
	}
	outSchema := schemaCols.Make(p.mem, len(tree.schema)+len(right.schema))
	copy(outSchema[copy(outSchema, tree.schema):], right.schema)
	var kl, kr []plan.Scalar
	joinSel := 1.0
	for _, e := range keysConj {
		lRel, lCol, rRel, rCol := e.lRel, e.lCol, e.rRel, e.rCol
		if !tree.set.has(lRel) {
			lRel, lCol, rRel, rCol = rRel, rCol, lRel, lCol
		}
		lOff, ok := offsetIn(tree.schema, lRel, lCol)
		if !ok {
			return nil, fmt.Errorf("opt: left join key not available")
		}
		rOff, _ := offsetIn(right.schema, rRel, rCol)
		kl = scalars.Append(p.mem, kl, p.colRef(tree.schema, lOff, 0))
		kr = scalars.Append(p.mem, kr, p.colRef(right.schema, rOff, 0))
		ndv := math.Max(p.ndvOf(lRel, lCol, tree.node.Est.Rows), p.ndvOf(rRel, rCol, right.node.Est.Rows)) // see keyNDV
		joinSel /= max(1, ndv)
	}
	var joinFilter plan.Scalar
	fb := p.newBinder(sc, outSchema, corr)
	for _, c := range filterConj {
		s, err := fb.bind(c)
		if err != nil {
			return nil, err
		}
		joinFilter = andScalars(p.mem, joinFilter, s)
	}
	hash := p.node(plan.Node{Op: plan.OpHash, Children: p.children(right.node), Cols: right.node.Cols})
	p.costHash(hash)
	node := p.node(plan.Node{
		Op:       plan.OpHashJoin,
		Children: p.children(tree.node, hash),
		Cols:     p.planColumns(outSchema),
		Join:     joinPayloads.New(p.mem, plan.JoinPayload{Type: plan.JoinLeft, HashKeysL: kl, HashKeysR: kr, Filter: joinFilter}),
	})
	joinRows := math.Max(tree.node.Est.Rows, tree.node.Est.Rows*right.node.Est.Rows*joinSel) // see keyNDV
	p.costHashJoin(node, joinRows)
	return p.tree(joinTree{set: tree.set.union(right.set), node: node, schema: outSchema}), nil
}

// applySemi attaches a hash semi or anti join for a decorrelated
// EXISTS/IN subquery.
func (p *planner) applySemi(tree *joinTree, se semiEntry, sc *scope, corr *subCtx) (*joinTree, error) {
	b := p.newBinder(sc, tree.schema, corr)
	kl := scalars.Make(p.mem, len(se.outerKeys))
	for i, e := range se.outerKeys {
		s, err := b.bind(e)
		if err != nil {
			return nil, err
		}
		kl[i] = s
	}
	kr := scalars.Make(p.mem, len(se.sub.Cols))
	for i, c := range se.sub.Cols {
		kr[i] = p.col(plan.Col{Idx: i, K: c.K, Name: c.Name})
	}
	if len(kr) != len(kl) {
		return nil, fmt.Errorf("opt: semi join key arity mismatch (%d vs %d)", len(kl), len(kr))
	}
	hash := p.node(plan.Node{Op: plan.OpHash, Children: p.children(se.sub), Cols: se.sub.Cols})
	p.costHash(hash)
	op := plan.OpHashSemiJoin
	jt := plan.JoinSemi
	if se.anti {
		op = plan.OpHashAntiJoin
		jt = plan.JoinAnti
	}
	node := p.node(plan.Node{
		Op:       op,
		Children: p.children(tree.node, hash),
		Cols:     tree.node.Cols,
		Join:     joinPayloads.New(p.mem, plan.JoinPayload{Type: jt, HashKeysL: kl, HashKeysR: kr}),
	})
	p.costHashJoin(node, max(1, tree.node.Est.Rows*defaultSel))
	return p.tree(joinTree{set: tree.set, node: node, schema: tree.schema}), nil
}

// decorrelateExists rewrites EXISTS (select … where outer = inner and …)
// into a semi/anti join when every correlated predicate is a simple
// equality and the subquery has no grouping.
func (p *planner) decorrelateExists(ex *sql.ExistsExpr, sc *scope) (semiEntry, bool) {
	sub := ex.Sub
	if len(sub.GroupBy) > 0 || sub.Having != nil || len(sub.Joins) > 0 || sub.Limit >= 0 {
		return semiEntry{}, false
	}
	subScope, err := p.scopeForStmt(sub, nil)
	if err != nil {
		return semiEntry{}, false
	}
	var outerKeys, innerKeys []sql.Expr
	var rest []sql.Expr
	for _, c := range splitConjuncts(p.mem, sub.Where) {
		if be, ok := c.(*sql.BinaryExpr); ok && be.Op == sql.OpEq {
			lo := p.isOuterRef(be.L, subScope, sc)
			ro := p.isOuterRef(be.R, subScope, sc)
			li := p.resolvesLocally(be.L, subScope)
			riL := p.resolvesLocally(be.R, subScope)
			if lo && riL {
				outerKeys = sqlExprs.Append(p.mem, outerKeys, be.L)
				innerKeys = sqlExprs.Append(p.mem, innerKeys, be.R)
				continue
			}
			if ro && li {
				outerKeys = sqlExprs.Append(p.mem, outerKeys, be.R)
				innerKeys = sqlExprs.Append(p.mem, innerKeys, be.L)
				continue
			}
		}
		if p.hasOuterRefs(c, subScope, sc) {
			return semiEntry{}, false
		}
		rest = sqlExprs.Append(p.mem, rest, c)
	}
	if len(outerKeys) == 0 {
		return semiEntry{}, false
	}
	synthetic := sqlSelects.New(p.mem, sql.SelectStmt{
		From:  sub.From,
		Limit: -1,
	})
	for _, ik := range innerKeys {
		synthetic.Items = sqlItems.Append(p.mem, synthetic.Items, sql.SelectItem{E: ik})
	}
	synthetic.Where = joinConjuncts(p.mem, rest)
	node, err := p.planSelect(synthetic, nil)
	if err != nil {
		return semiEntry{}, false
	}
	return semiEntry{anti: ex.Negated, outerKeys: outerKeys, sub: node}, true
}

// decorrelateIn turns expr IN (uncorrelated subquery) into a semi join.
func (p *planner) decorrelateIn(in *sql.InExpr, sc *scope) (semiEntry, error) {
	probe := subCtxs.New(p.mem, subCtx{outerScope: sc})
	node, err := p.planSelect(in.Sub, probe)
	if err != nil {
		return semiEntry{}, err
	}
	if len(probe.refs) > 0 {
		return semiEntry{}, fmt.Errorf("opt: correlated IN subqueries are not supported")
	}
	return semiEntry{anti: in.Negated, outerKeys: sqlExprs.Clone(p.mem, []sql.Expr{in.E}), sub: node}, nil
}

// isOuterRef reports whether e is a column reference resolving only in the
// enclosing scope.
func (p *planner) isOuterRef(e sql.Expr, local *scope, outer *scope) bool {
	ref, ok := e.(*sql.ColumnRef)
	if !ok {
		return false
	}
	if _, _, err := local.resolve(ref); err == nil {
		return false
	}
	_, _, err := outer.resolve(ref)
	return err == nil
}

// resolvesLocally reports whether e is a column reference of the subquery
// itself.
func (p *planner) resolvesLocally(e sql.Expr, local *scope) bool {
	ref, ok := e.(*sql.ColumnRef)
	if !ok {
		return false
	}
	_, _, err := local.resolve(ref)
	return err == nil
}

// hasOuterRefs reports whether any column reference inside e escapes the
// local scope into the outer one. Nested subqueries conservatively count
// as escaping (forcing the SubPlan fallback).
func (p *planner) hasOuterRefs(e sql.Expr, local *scope, outer *scope) bool {
	found := false
	sql.Inspect(e, func(n sql.Expr) bool {
		switch v := n.(type) {
		case *sql.ColumnRef:
			found = found || p.isOuterRef(v, local, outer)
		case *sql.InExpr:
			found = found || v.Sub != nil
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			found = true
		}
		return !found
	})
	return found
}

// splitConjuncts flattens a predicate into its AND-ed conjuncts, in a's
// memory. The accumulator form fills one slice, counted first, instead of
// a quadratic append chain over the deep AND trees TPC-H WHERE clauses
// produce.
func splitConjuncts(a *arena.Arena, e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(sqlExprs.Make(a, countConjuncts(e))[:0], e)
}

// countConjuncts is len(splitConjuncts(e)) for a non-nil e.
func countConjuncts(e sql.Expr) int {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return countConjuncts(be.L) + countConjuncts(be.R)
	}
	return 1
}

func appendConjuncts(out []sql.Expr, e sql.Expr) []sql.Expr {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return appendConjuncts(appendConjuncts(out, be.L), be.R)
	}
	return append(out, e)
}

// joinConjuncts rebuilds an AND tree in a's memory (nil for an empty
// list).
func joinConjuncts(a *arena.Arena, conjs []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = sqlBinaries.New(a, sql.BinaryExpr{Op: sql.OpAnd, L: out, R: c})
		}
	}
	return out
}

// exprHasAgg reports whether the expression contains an aggregate call
// (not descending into subqueries).
func exprHasAgg(e sql.Expr) bool {
	found := false
	sql.Inspect(e, func(n sql.Expr) bool {
		if fc, ok := n.(*sql.FuncCall); ok && fc.IsAggregate() {
			found = true
		}
		return !found
	})
	return found
}

// aggFuncOf maps an aggregate name to its enum.
func aggFuncOf(name string) plan.AggFunc {
	switch name {
	case "sum":
		return plan.AggSum
	case "avg":
		return plan.AggAvg
	case "count":
		return plan.AggCount
	case "min":
		return plan.AggMin
	default:
		return plan.AggMax
	}
}

// aggResultKind computes an aggregate's output type.
func aggResultKind(s plan.AggSpec) types.Kind {
	switch s.Func {
	case plan.AggCount:
		return types.KindInt
	case plan.AggAvg:
		return types.KindFloat
	default:
		if s.Arg != nil {
			return s.Arg.Kind()
		}
		return types.KindInt
	}
}

// containsCol reports whether a bound scalar reads any input column (as
// opposed to constants and parameters only).
func containsCol(s plan.Scalar) bool {
	found := false
	plan.Inspect(s, func(n plan.Scalar) bool {
		_, isCol := n.(*plan.Col)
		found = found || isCol
		return !found
	})
	return found
}
