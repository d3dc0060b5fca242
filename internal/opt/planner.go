package opt

import (
	"fmt"
	"math"

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
	relByID      map[int]*relInfo
	nextRel      int
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
	p := &planner{db: db, relByID: map[int]*relInfo{}, workMemPages: 256}
	return p.run(stmt)
}

// run plans the statement and attaches the collected init-plan / sub-plan
// registries to the root.
func (p *planner) run(stmt *sql.SelectStmt) (*plan.Node, error) {
	root, err := p.planSelect(stmt, nil)
	if err != nil {
		return nil, err
	}
	root.InitPlans = p.initPlans
	root.InitPlanSlots = p.initSlots
	root.SubPlans = p.subPlans
	root.SubPlanArgSlots = p.subArgSlots
	root.NumParams = p.numParams
	return root, nil
}

// PlanSQL parses and plans a SQL string.
func PlanSQL(db *storage.Database, query string) (*plan.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return Plan(db, stmt)
}

func (p *planner) allocParam() int {
	s := p.numParams
	p.numParams++
	return s
}

func (p *planner) newRelID() int {
	id := p.nextRel
	p.nextRel++
	if id >= 64 {
		panic("opt: too many relations in one statement")
	}
	return id
}

// semiEntry is a decorrelated EXISTS / IN subquery awaiting application as
// a semi or anti join on top of the base join tree.
type semiEntry struct {
	anti      bool
	outerKeys []sql.Expr // resolve in the enclosing block's scope
	sub       *plan.Node // planned subquery; output columns are the keys
}

// planSelect plans one query block. corr is non-nil when this block is a
// correlated subquery of an enclosing block.
func (p *planner) planSelect(stmt *sql.SelectStmt, corr *subCtx) (*plan.Node, error) {
	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("opt: empty select list")
	}
	sc := &scope{}
	if corr != nil {
		sc.outer = corr.outerScope
	}

	var dpRels []*relInfo
	type leftJoinSpec struct {
		ri *relInfo
		on sql.Expr
	}
	var lefts []leftJoinSpec
	var extraConj []sql.Expr

	addRel := func(fi *sql.FromItem) (*relInfo, error) {
		ri := &relInfo{id: p.newRelID(), alias: fi.Alias}
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
			cols := make([]catalog.Column, len(sub.Cols))
			for i, c := range sub.Cols {
				cols[i] = catalog.Column{Name: c.Name, Type: c.K}
			}
			for i, a := range fi.ColAliases {
				if i < len(cols) {
					cols[i].Name = a
				}
			}
			ri.cols = cols
		}
		p.relByID[ri.id] = ri
		sc.rels = append(sc.rels, ri)
		return ri, nil
	}

	for i := range stmt.From {
		ri, err := addRel(&stmt.From[i])
		if err != nil {
			return nil, err
		}
		dpRels = append(dpRels, ri)
	}
	for i := range stmt.Joins {
		j := &stmt.Joins[i]
		ri, err := addRel(&j.Item)
		if err != nil {
			return nil, err
		}
		if j.Type == sql.JoinLeft {
			lefts = append(lefts, leftJoinSpec{ri: ri, on: j.On})
		} else {
			dpRels = append(dpRels, ri)
			extraConj = append(extraConj, splitConjuncts(j.On)...)
		}
	}

	var dpSet relSet
	for _, ri := range dpRels {
		dpSet = dpSet.with(ri.id)
	}

	// Classify WHERE conjuncts.
	conjuncts := append(splitConjuncts(stmt.Where), extraConj...)
	locals := map[int][]sql.Expr{}
	var edges []joinEdge
	var semis []semiEntry
	var residuals []sql.Expr

	for _, c := range conjuncts {
		if ex, ok := c.(*sql.ExistsExpr); ok {
			if se, ok := p.decorrelateExists(ex, sc); ok {
				semis = append(semis, se)
				continue
			}
			residuals = append(residuals, c)
			continue
		}
		if in, ok := c.(*sql.InExpr); ok && in.Sub != nil {
			se, err := p.decorrelateIn(in, sc)
			if err != nil {
				return nil, err
			}
			semis = append(semis, se)
			continue
		}
		rels := p.freeRels(c, sc)
		if rels&^dpSet != 0 {
			// Touches a LEFT-joined relation: apply after the outer join.
			residuals = append(residuals, c)
			continue
		}
		switch rels.count() {
		case 0:
			residuals = append(residuals, c)
		case 1:
			id := firstRel(rels)
			locals[id] = append(locals[id], c)
		case 2:
			if e, ok := p.asEquiEdge(c, sc); ok {
				edges = append(edges, e)
			} else {
				residuals = append(residuals, c)
			}
		default:
			residuals = append(residuals, c)
		}
	}

	// Base scans and join ordering.
	scans := make([]*joinTree, 0, len(dpRels))
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
		b := &binder{p: p, sc: sc, schema: tree.schema, corr: corr}
		var f plan.Scalar
		sel := 1.0
		for _, c := range residuals {
			s, err := b.bind(c)
			if err != nil {
				return nil, err
			}
			f = andScalars(f, s)
			sel *= p.filterSelectivity(c, sc)
		}
		tree.node.Filter = andScalars(tree.node.Filter, f)
		tree.node.Est.Rows = math.Max(1, tree.node.Est.Rows*sel)
	}

	// Aggregation / projection.
	outNode, _, _, orderIdx, err := p.planOutput(stmt, tree, sc, corr)
	if err != nil {
		return nil, err
	}

	// DISTINCT via hashed grouping over the projected columns.
	if stmt.Distinct {
		groups := make([]plan.Scalar, len(outNode.Cols))
		for i, c := range outNode.Cols {
			groups[i] = &plan.Col{Idx: i, K: c.K, Name: c.Name}
		}
		d := &plan.Node{
			Op: plan.OpHashAggregate, Children: []*plan.Node{outNode},
			Cols: outNode.Cols, GroupBy: groups,
		}
		p.costAggregate(d, math.Max(1, outNode.Est.Rows/2))
		outNode = d
	}

	// ORDER BY, LIMIT.
	if len(stmt.OrderBy) > 0 {
		keys := make([]plan.SortKey, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			idx, ok := orderIdx(o.E)
			if !ok {
				return nil, fmt.Errorf("opt: ORDER BY expression %q must appear in the select list", o.E.SQL())
			}
			keys[i] = plan.SortKey{Col: idx, Desc: o.Desc}
		}
		s := &plan.Node{Op: plan.OpSort, Children: []*plan.Node{outNode}, Cols: outNode.Cols, SortKeys: keys}
		p.costSort(s)
		outNode = s
	}
	if stmt.Limit >= 0 {
		l := &plan.Node{Op: plan.OpLimit, Children: []*plan.Node{outNode}, Cols: outNode.Cols, LimitN: stmt.Limit}
		p.costLimit(l)
		outNode = l
	}
	return outNode, nil
}

// containsSubquery reports whether the expression embeds any subquery.
func containsSubquery(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.SubqueryExpr, *sql.ExistsExpr:
		return true
	case *sql.InExpr:
		if v.Sub != nil {
			return true
		}
		for _, i := range v.List {
			if containsSubquery(i) {
				return true
			}
		}
		return containsSubquery(v.E)
	case *sql.BinaryExpr:
		return containsSubquery(v.L) || containsSubquery(v.R)
	case *sql.NotExpr:
		return containsSubquery(v.E)
	case *sql.NegExpr:
		return containsSubquery(v.E)
	case *sql.FuncCall:
		for _, a := range v.Args {
			if containsSubquery(a) {
				return true
			}
		}
	case *sql.CaseExpr:
		for _, w := range v.Whens {
			if containsSubquery(w.Cond) || containsSubquery(w.Then) {
				return true
			}
		}
		if v.Else != nil {
			return containsSubquery(v.Else)
		}
	case *sql.BetweenExpr:
		return containsSubquery(v.E) || containsSubquery(v.Lo) || containsSubquery(v.Hi)
	case *sql.LikeExpr:
		return containsSubquery(v.E)
	case *sql.IsNullExpr:
		return containsSubquery(v.E)
	case *sql.ExtractExpr:
		return containsSubquery(v.From)
	case *sql.SubstringExpr:
		return containsSubquery(v.E)
	}
	return false
}

// planOutput handles grouping, HAVING and projection, returning the output
// node plus a resolver mapping ORDER BY expressions to output columns.
func (p *planner) planOutput(stmt *sql.SelectStmt, tree *joinTree, sc *scope, corr *subCtx) (*plan.Node, []plan.Scalar, []string, func(sql.Expr) (int, bool), error) {
	joinBinder := &binder{p: p, sc: sc, schema: tree.schema, corr: corr}

	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if exprHasAgg(it.E) {
			hasAgg = true
		}
	}

	itemNames := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		switch {
		case it.Alias != "":
			itemNames[i] = it.Alias
		default:
			if ref, ok := it.E.(*sql.ColumnRef); ok {
				itemNames[i] = ref.Name
			} else {
				itemNames[i] = fmt.Sprintf("col%d", i+1)
			}
		}
	}

	var outNode *plan.Node
	var itemScalars []plan.Scalar
	var bindOut func(e sql.Expr) (plan.Scalar, error)

	if hasAgg {
		// Bind group expressions against the join output.
		groups := make([]plan.Scalar, len(stmt.GroupBy))
		groupStrs := make([]string, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			s, err := joinBinder.bind(g)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			groups[i] = s
			groupStrs[i] = s.String()
		}
		var specs []plan.AggSpec
		var specStrs []string

		// The transforming binder intercepts aggregate calls and
		// group-expression matches, mapping them to aggregate-output
		// columns; anything else recurses structurally.
		outSchema := func() []schemaCol {
			cols := make([]schemaCol, 0, len(groups)+len(specs))
			for i, g := range groups {
				name := ""
				if ref, ok := stmt.GroupBy[i].(*sql.ColumnRef); ok {
					name = ref.Name
				}
				cols = append(cols, schemaCol{rel: -1, col: i, name: name, kind: g.Kind()})
			}
			for j, s := range specs {
				kind := s.K
				cols = append(cols, schemaCol{rel: -1, col: len(groups) + j, kind: kind})
			}
			return cols
		}
		aggBinder := &binder{p: p, sc: sc, schema: nil, corr: corr}
		aggBinder.hook = func(e sql.Expr) (plan.Scalar, bool, error) {
			if fc, ok := e.(*sql.FuncCall); ok && fc.IsAggregate() {
				var arg plan.Scalar
				if !fc.Star && len(fc.Args) > 0 {
					a, err := joinBinder.bind(fc.Args[0])
					if err != nil {
						return nil, true, err
					}
					arg = a
				}
				spec := plan.AggSpec{Func: aggFuncOf(fc.Name), Arg: arg, Distinct: fc.Distinct}
				spec.K = aggResultKind(spec)
				key := spec.String()
				for j, s := range specStrs {
					if s == key {
						return &plan.Col{Idx: len(groups) + j, K: specs[j].K}, true, nil
					}
				}
				specs = append(specs, spec)
				specStrs = append(specStrs, key)
				aggBinder.schema = outSchema()
				return &plan.Col{Idx: len(groups) + len(specs) - 1, K: spec.K}, true, nil
			}
			// Whole-expression match against a group expression. Skip
			// expressions containing aggregates or subqueries: binding them
			// here would be wrong (aggregates) or cause duplicate init-plan
			// registration (subqueries); recursion handles both.
			if exprHasAgg(e) || containsSubquery(e) {
				return nil, false, nil
			}
			if s, err := joinBinder.bind(e); err == nil {
				str := s.String()
				for i, gs := range groupStrs {
					if gs == str {
						return &plan.Col{Idx: i, K: groups[i].Kind()}, true, nil
					}
				}
				if _, isRef := e.(*sql.ColumnRef); isRef {
					return nil, true, fmt.Errorf("opt: column %q must appear in GROUP BY or an aggregate", e.SQL())
				}
			}
			return nil, false, nil
		}
		aggBinder.schema = outSchema()
		bindOut = aggBinder.bind

		// HAVING first (may add aggregate specs), then items.
		var having plan.Scalar
		if stmt.Having != nil {
			h, err := bindOut(stmt.Having)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			having = h
		}
		itemScalars = make([]plan.Scalar, len(stmt.Items))
		for i, it := range stmt.Items {
			s, err := bindOut(it.E)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			itemScalars[i] = s
		}

		inputRows := tree.node.Est.Rows
		groupsEst := p.estimateGroups(stmt.GroupBy, sc, inputRows)
		aggCols := make([]plan.Column, 0, len(groups)+len(specs))
		for i, g := range groups {
			name := ""
			if ref, ok := stmt.GroupBy[i].(*sql.ColumnRef); ok {
				name = ref.Name
			}
			w := 8.0
			if g.Kind() == types.KindString {
				w = 16
			}
			aggCols = append(aggCols, plan.Column{Name: name, K: g.Kind(), Width: w})
		}
		for _, s := range specs {
			aggCols = append(aggCols, plan.Column{Name: s.String(), K: s.K, Width: 8})
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
				sortKeys := make([]plan.SortKey, 0, len(groups))
				ok := true
				for _, g := range groups {
					col, isCol := g.(*plan.Col)
					if !isCol {
						ok = false
						break
					}
					sortKeys = append(sortKeys, plan.SortKey{Col: col.Idx})
				}
				if ok {
					s := &plan.Node{Op: plan.OpSort, Children: []*plan.Node{child}, Cols: child.Cols, SortKeys: sortKeys}
					p.costSort(s)
					child = s
				} else {
					op = plan.OpHashAggregate
				}
			}
		}
		agg := &plan.Node{
			Op: op, Children: []*plan.Node{child},
			Cols: aggCols, GroupBy: groups, Aggs: specs, Filter: having,
		}
		p.costAggregate(agg, groupsEst)
		if having != nil {
			agg.Est.Rows = math.Max(1, agg.Est.Rows*defaultRangeSel)
		}
		outNode = agg
	} else {
		bindOut = joinBinder.bind
		itemScalars = make([]plan.Scalar, len(stmt.Items))
		for i, it := range stmt.Items {
			s, err := bindOut(it.E)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			itemScalars[i] = s
		}
		outNode = tree.node
	}

	// Projection node unless the items are exactly the input columns.
	identity := len(itemScalars) == len(outNode.Cols)
	if identity {
		for i, s := range itemScalars {
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
		cols := append([]plan.Column(nil), outNode.Cols...)
		for i := range cols {
			cols[i].Name = itemNames[i]
		}
		outNode.Cols = cols
	} else {
		cols := make([]plan.Column, len(itemScalars))
		var ops float64
		for i, s := range itemScalars {
			w := 8.0
			if s.Kind() == types.KindString {
				w = 16
			}
			cols[i] = plan.Column{Name: itemNames[i], K: s.Kind(), Width: w}
			ops += s.Cost().Ops
		}
		proj := &plan.Node{Op: plan.OpResult, Children: []*plan.Node{outNode}, Cols: cols, Projs: itemScalars}
		p.costResult(proj, ops, 1)
		outNode = proj
	}

	// ORDER BY resolver: alias match first, then structural match against
	// the bound item expressions.
	itemStrs := make([]string, len(itemScalars))
	for i, s := range itemScalars {
		itemStrs[i] = s.String()
	}
	orderIdx := func(e sql.Expr) (int, bool) {
		if ref, ok := e.(*sql.ColumnRef); ok && ref.Table == "" {
			for i, n := range itemNames {
				if n == ref.Name {
					return i, true
				}
			}
		}
		s, err := bindOut(e)
		if err != nil {
			return 0, false
		}
		str := s.String()
		for i, is := range itemStrs {
			if is == str {
				return i, true
			}
		}
		return 0, false
	}
	return outNode, itemScalars, itemNames, orderIdx, nil
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
	return math.Max(1, math.Min(est, inputRows))
}

// buildScan makes the scan fragment for one relation with its local
// predicates attached and costed. An equality predicate on the leading
// primary-key column against a constant or correlation parameter selects
// an index scan (the shape PostgreSQL produces for correlated sub-plans
// like Q2's).
func (p *planner) buildScan(ri *relInfo, localConj []sql.Expr, sc *scope, corr *subCtx) (*joinTree, error) {
	schema := schemaOf(ri)
	b := &binder{p: p, sc: sc, schema: schema, corr: corr}

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
		filter = andScalars(filter, s)
		sel *= p.filterSelectivity(c, sc)
		filterOps += s.Cost().Ops
	}
	sel = clampSel(sel)

	if ri.table != "" {
		st, ok := p.db.TableStats(ri.table)
		if !ok {
			return nil, fmt.Errorf("opt: no statistics for table %q", ri.table)
		}
		if lookupKey != nil {
			meta, _ := p.db.Schema.Table(ri.table)
			node := &plan.Node{
				Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
				Index: ri.table + "_pkey", Filter: filter,
				LookupConsts: []plan.Scalar{lookupKey},
			}
			node.Cols = p.planColumnsFromStats(schema, st)
			p.costIndexScan(node, p.pkMatches(ri, meta.PrimaryKey[0], st), float64(st.Pages), sel)
			return &joinTree{set: relSet(0).with(ri.id), node: node, schema: schema}, nil
		}
		node := &plan.Node{Op: plan.OpSeqScan, Table: ri.table, Alias: ri.alias, Filter: filter}
		node.Cols = p.planColumnsFromStats(schema, st)
		p.costSeqScan(node, float64(st.RowCount), float64(st.Pages), sel, filterOps)
		return &joinTree{set: relSet(0).with(ri.id), node: node, schema: schema}, nil
	}
	node := &plan.Node{Op: plan.OpSubqueryScan, Alias: ri.alias, Children: []*plan.Node{ri.sub}, Filter: filter}
	cols := make([]plan.Column, len(ri.cols))
	for i, c := range ri.cols {
		w := 8.0
		if c.Type == types.KindString {
			w = 16
		}
		cols[i] = plan.Column{Name: c.Name, K: c.Type, Width: w}
	}
	node.Cols = cols
	p.costSubqueryScan(node, sel, filterOps)
	return &joinTree{set: relSet(0).with(ri.id), node: node, schema: schema}, nil
}

// planColumnsFromStats builds column metadata with statistics-informed widths.
func (p *planner) planColumnsFromStats(schema []schemaCol, st *catalog.TableStats) []plan.Column {
	out := make([]plan.Column, len(schema))
	for i, sc := range schema {
		w := 8.0
		if sc.col < len(st.Columns) && st.Columns[sc.col].AvgWidth > 0 {
			w = st.Columns[sc.col].AvgWidth
		}
		out[i] = plan.Column{Name: sc.name, K: sc.kind, Width: w}
	}
	return out
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
	conjs := splitConjuncts(on)
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
			rightLocal = append(rightLocal, c)
		case rels.count() == 2 && rels.has(ri.id):
			if e, ok := p.asEquiEdge(c, sc); ok {
				keysConj = append(keysConj, e)
			} else {
				filterConj = append(filterConj, c)
			}
		default:
			filterConj = append(filterConj, c)
		}
	}
	right, err := p.buildScan(ri, rightLocal, sc, corr)
	if err != nil {
		return nil, err
	}
	outSchema := append(append([]schemaCol{}, tree.schema...), right.schema...)
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
		kl = append(kl, &plan.Col{Idx: lOff, K: tree.schema[lOff].kind, Name: tree.schema[lOff].name})
		kr = append(kr, &plan.Col{Idx: rOff, K: right.schema[rOff].kind, Name: right.schema[rOff].name})
		ndv := math.Max(p.ndvOf(lRel, lCol, tree.node.Est.Rows), p.ndvOf(rRel, rCol, right.node.Est.Rows))
		joinSel /= math.Max(1, ndv)
	}
	var joinFilter plan.Scalar
	fb := &binder{p: p, sc: sc, schema: outSchema, corr: corr}
	for _, c := range filterConj {
		s, err := fb.bind(c)
		if err != nil {
			return nil, err
		}
		joinFilter = andScalars(joinFilter, s)
	}
	hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{right.node}, Cols: right.node.Cols}
	p.costHash(hash)
	node := &plan.Node{
		Op: plan.OpHashJoin, JoinType: plan.JoinLeft,
		Children:  []*plan.Node{tree.node, hash},
		Cols:      p.planColumns(outSchema),
		HashKeysL: kl, HashKeysR: kr,
		JoinFilter: joinFilter,
	}
	joinRows := math.Max(tree.node.Est.Rows, tree.node.Est.Rows*right.node.Est.Rows*joinSel)
	p.costHashJoin(node, joinRows)
	return &joinTree{set: tree.set.union(right.set), node: node, schema: outSchema}, nil
}

// applySemi attaches a hash semi or anti join for a decorrelated
// EXISTS/IN subquery.
func (p *planner) applySemi(tree *joinTree, se semiEntry, sc *scope, corr *subCtx) (*joinTree, error) {
	b := &binder{p: p, sc: sc, schema: tree.schema, corr: corr}
	kl := make([]plan.Scalar, len(se.outerKeys))
	for i, e := range se.outerKeys {
		s, err := b.bind(e)
		if err != nil {
			return nil, err
		}
		kl[i] = s
	}
	kr := make([]plan.Scalar, len(se.sub.Cols))
	for i, c := range se.sub.Cols {
		kr[i] = &plan.Col{Idx: i, K: c.K, Name: c.Name}
	}
	if len(kr) != len(kl) {
		return nil, fmt.Errorf("opt: semi join key arity mismatch (%d vs %d)", len(kl), len(kr))
	}
	hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{se.sub}, Cols: se.sub.Cols}
	p.costHash(hash)
	op := plan.OpHashSemiJoin
	jt := plan.JoinSemi
	if se.anti {
		op = plan.OpHashAntiJoin
		jt = plan.JoinAnti
	}
	node := &plan.Node{
		Op: op, JoinType: jt,
		Children:  []*plan.Node{tree.node, hash},
		Cols:      tree.node.Cols,
		HashKeysL: kl, HashKeysR: kr,
	}
	p.costHashJoin(node, math.Max(1, tree.node.Est.Rows*defaultSel))
	return &joinTree{set: tree.set, node: node, schema: tree.schema}, nil
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
	for _, c := range splitConjuncts(sub.Where) {
		if be, ok := c.(*sql.BinaryExpr); ok && be.Op == sql.OpEq {
			lo := p.isOuterRef(be.L, subScope, sc)
			ro := p.isOuterRef(be.R, subScope, sc)
			li := p.resolvesLocally(be.L, subScope)
			riL := p.resolvesLocally(be.R, subScope)
			if lo && riL {
				outerKeys = append(outerKeys, be.L)
				innerKeys = append(innerKeys, be.R)
				continue
			}
			if ro && li {
				outerKeys = append(outerKeys, be.R)
				innerKeys = append(innerKeys, be.L)
				continue
			}
		}
		if p.hasOuterRefs(c, subScope, sc) {
			return semiEntry{}, false
		}
		rest = append(rest, c)
	}
	if len(outerKeys) == 0 {
		return semiEntry{}, false
	}
	synthetic := &sql.SelectStmt{
		From:  sub.From,
		Limit: -1,
	}
	for _, ik := range innerKeys {
		synthetic.Items = append(synthetic.Items, sql.SelectItem{E: ik})
	}
	synthetic.Where = joinConjuncts(rest)
	node, err := p.planSelect(synthetic, nil)
	if err != nil {
		return semiEntry{}, false
	}
	return semiEntry{anti: ex.Negated, outerKeys: outerKeys, sub: node}, true
}

// decorrelateIn turns expr IN (uncorrelated subquery) into a semi join.
func (p *planner) decorrelateIn(in *sql.InExpr, sc *scope) (semiEntry, error) {
	probe := &subCtx{outerScope: sc}
	node, err := p.planSelect(in.Sub, probe)
	if err != nil {
		return semiEntry{}, err
	}
	if len(probe.refs) > 0 {
		return semiEntry{}, fmt.Errorf("opt: correlated IN subqueries are not supported")
	}
	return semiEntry{anti: in.Negated, outerKeys: []sql.Expr{in.E}, sub: node}, nil
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
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		if found {
			return
		}
		switch v := e.(type) {
		case *sql.ColumnRef:
			if p.isOuterRef(v, local, outer) {
				found = true
			}
		case *sql.BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *sql.NotExpr:
			walk(v.E)
		case *sql.NegExpr:
			walk(v.E)
		case *sql.FuncCall:
			for _, a := range v.Args {
				walk(a)
			}
		case *sql.CaseExpr:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if v.Else != nil {
				walk(v.Else)
			}
		case *sql.InExpr:
			walk(v.E)
			for _, i := range v.List {
				walk(i)
			}
			if v.Sub != nil {
				found = true
			}
		case *sql.BetweenExpr:
			walk(v.E)
			walk(v.Lo)
			walk(v.Hi)
		case *sql.LikeExpr:
			walk(v.E)
		case *sql.IsNullExpr:
			walk(v.E)
		case *sql.ExtractExpr:
			walk(v.From)
		case *sql.SubstringExpr:
			walk(v.E)
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			found = true
		}
	}
	walk(e)
	return found
}

// splitConjuncts flattens a predicate into its AND-ed conjuncts. The
// accumulator form builds one slice instead of a quadratic append chain
// over the deep AND trees TPC-H WHERE clauses produce.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(nil, e)
}

func appendConjuncts(out []sql.Expr, e sql.Expr) []sql.Expr {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return appendConjuncts(appendConjuncts(out, be.L), be.R)
	}
	return append(out, e)
}

// joinConjuncts rebuilds an AND tree (nil for an empty list).
func joinConjuncts(conjs []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &sql.BinaryExpr{Op: sql.OpAnd, L: out, R: c}
		}
	}
	return out
}

// exprHasAgg reports whether the expression contains an aggregate call
// (not descending into subqueries).
func exprHasAgg(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.FuncCall:
		if v.IsAggregate() {
			return true
		}
		for _, a := range v.Args {
			if exprHasAgg(a) {
				return true
			}
		}
	case *sql.BinaryExpr:
		return exprHasAgg(v.L) || exprHasAgg(v.R)
	case *sql.NotExpr:
		return exprHasAgg(v.E)
	case *sql.NegExpr:
		return exprHasAgg(v.E)
	case *sql.CaseExpr:
		for _, w := range v.Whens {
			if exprHasAgg(w.Cond) || exprHasAgg(w.Then) {
				return true
			}
		}
		if v.Else != nil {
			return exprHasAgg(v.Else)
		}
	case *sql.BetweenExpr:
		return exprHasAgg(v.E) || exprHasAgg(v.Lo) || exprHasAgg(v.Hi)
	case *sql.ExtractExpr:
		return exprHasAgg(v.From)
	case *sql.IsNullExpr:
		return exprHasAgg(v.E)
	case *sql.SubstringExpr:
		return exprHasAgg(v.E)
	}
	return false
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
	switch v := s.(type) {
	case *plan.Col:
		return true
	case *plan.Bin:
		return containsCol(v.L) || containsCol(v.R)
	case *plan.Not:
		return containsCol(v.E)
	case *plan.Neg:
		return containsCol(v.E)
	case *plan.DateAdd:
		return containsCol(v.E)
	case *plan.ExtractYear:
		return containsCol(v.E)
	case *plan.Substring:
		return containsCol(v.E)
	case *plan.Between:
		return containsCol(v.E) || containsCol(v.Lo) || containsCol(v.Hi)
	case *plan.In:
		if containsCol(v.E) {
			return true
		}
		for _, e := range v.List {
			if containsCol(e) {
				return true
			}
		}
	case *plan.Case:
		for _, w := range v.Whens {
			if containsCol(w.Cond) || containsCol(w.Then) {
				return true
			}
		}
		if v.Else != nil {
			return containsCol(v.Else)
		}
	case *plan.SubPlan:
		for _, a := range v.Args {
			if containsCol(a) {
				return true
			}
		}
	}
	return false
}
