package opt

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/types"
)

// joinTree is a built and costed plan fragment covering a set of relations.
type joinTree struct {
	set    relSet
	node   *plan.Node
	schema []schemaCol
}

// joinEdge is an equi-join predicate between two relations.
type joinEdge struct {
	lRel, lCol int
	rRel, rCol int
}

// colNDV is the catalog's distinct count of a column, 0 when unknown.
func (p *planner) colNDV(rel, col int) float64 {
	if cs := p.colStats(schemaCol{rel: rel, col: col}); cs != nil {
		return cs.NDV
	}
	return 0
}

// clampNDV bounds a column's distinct count by the rows its relation
// contributes; an unknown count (0) assumes every row distinct.
func clampNDV(ndv, relRows float64) float64 {
	if ndv > 0 {
		return math.Min(ndv, math.Max(1, relRows))
	}
	return math.Max(1, relRows)
}

// ndvOf estimates the distinct count of a column, clamped by rel rows.
func (p *planner) ndvOf(rel, col int, relRows float64) float64 {
	return clampNDV(p.colNDV(rel, col), relRows)
}

// keyNDV is what one equi key divides the join selectivity by.
func keyNDV(lNDV, rNDV, lRows, rRows float64) float64 {
	return math.Max(1, math.Max(clampNDV(lNDV, lRows), clampNDV(rNDV, rRows)))
}

// joinCard is the output cardinality of a join with selectivity sel.
func joinCard(lRows, rRows, sel float64) float64 {
	return math.Max(1, lRows*rRows*sel)
}

// pkAccess reports whether t is a plain sequential scan of a base table
// with a primary key — the one shape join costing offers index
// alternatives for (parameterized lookup, key-ordered scan). ri is nil
// when it is not.
func (p *planner) pkAccess(t *joinTree) (ri *relInfo, pkCol int, st *catalog.TableStats) {
	if t.set.count() != 1 || t.node.Op != plan.OpSeqScan {
		return nil, -1, nil
	}
	ri = p.relByID[firstRel(t.set)]
	meta, _ := p.db.Schema.Table(ri.table)
	st, _ = p.db.TableStats(ri.table)
	if meta == nil || len(meta.PrimaryKey) == 0 || st == nil {
		return nil, -1, nil
	}
	return ri, meta.PrimaryKey[0], st
}

// pkMatches is the number of rows one equality lookup on the leading
// primary-key column fetches.
func (p *planner) pkMatches(ri *relInfo, pkCol int, st *catalog.TableStats) float64 {
	return math.Max(1, float64(st.RowCount)/p.ndvOf(ri.id, pkCol, float64(st.RowCount)))
}

// orderJoins picks the join order of one query block and builds its tree.
// The order comes from the cost-only search below — or, in replay mode,
// from the recorded trace — as a merge sequence; applySteps, the one
// caller of bestJoin, turns either into nodes. In recording mode the
// sequence is appended to the trace.
func (p *planner) orderJoins(scans []*joinTree, edges []joinEdge) (*joinTree, error) {
	if len(scans) == 0 {
		return nil, fmt.Errorf("opt: empty FROM list")
	}
	if p.replay != nil {
		if p.replayIdx >= len(p.replay.Blocks) {
			return nil, fmt.Errorf("opt: join trace mismatch: more query blocks than recorded")
		}
		steps := p.replay.Blocks[p.replayIdx]
		p.replayIdx++
		return p.applySteps(scans, steps, edges)
	}
	steps, total := p.searchJoins(scans, edges)
	tree, err := p.applySteps(scans, steps, edges)
	if err != nil {
		return nil, err
	}
	// The search prices a join with the formulas bestJoin fills nodes
	// with; a differing bit means the two have drifted apart, and the tree
	// may no longer be the one the search meant.
	if built := tree.node.Est.TotalCost; math.Float64bits(built) != math.Float64bits(total) {
		return nil, fmt.Errorf("opt: join search priced the block at %v, the built tree costs %v", total, built)
	}
	if p.verify != nil {
		if err := p.verify(scans, edges, steps, tree); err != nil {
			return nil, err
		}
	}
	if p.rec != nil {
		p.rec.Blocks = append(p.rec.Blocks, steps)
	}
	return tree, nil
}

// applySteps materialises a merge sequence over a block's scans: one
// bestJoin per step, so physical choice, key order and every cost float
// come from the same code whether the steps were just searched or
// replayed from a trace. A step consumes its two inputs — a fragment is
// joined once, which is what lets bestJoin extend its schema in place.
// Steps that do not fit the block are an error (replay callers fall back
// to cold planning), never a panic.
func (p *planner) applySteps(scans []*joinTree, steps []JoinStep, edges []joinEdge) (*joinTree, error) {
	live := slices.Clone(scans) // fragments not yet consumed
	take := func(s relSet) *joinTree {
		for i, t := range live {
			if t.set == s {
				live = slices.Delete(live, i, i+1)
				return t
			}
		}
		return nil
	}
	var full relSet
	for _, t := range scans {
		full = full.union(t.set)
	}
	cur := scans[0]
	for _, st := range steps {
		l, r := take(relSet(st.L)), take(relSet(st.R))
		if l == nil || r == nil || l.set&r.set != 0 {
			return nil, fmt.Errorf("opt: join trace mismatch: merge of unknown, consumed or overlapping fragments %#x x %#x", st.L, st.R)
		}
		cur = p.bestJoin(l, r, edges)
		live = append(live, cur)
	}
	if cur.set != full {
		return nil, fmt.Errorf("opt: join trace mismatch: recorded merges do not cover the FROM list")
	}
	return cur, nil
}

// maxDPRels is the largest block searched exhaustively. The DP prices up
// to 3^n ordered pairs (a 12-way star: 14 ms, x4-5 per two more
// relations), so larger blocks are merged greedily; the TPC-H templates
// top out at 8. PostgreSQL's geqo_threshold is the precedent.
const maxDPRels = 10

// frag is the search's entry for one relation set: the estimate of the
// cheapest join found for it and where that join came from. It holds no
// plan node and no schema, so pricing a candidate pair allocates nothing.
type frag struct {
	est
	colsW  float64 // output width as planColumns reports it; differs from est.width on scans only
	set    relSet  // relations covered
	nbr    relSet  // relations sharing a join edge with one of set
	pl, pr uint16  // DP table slots of the two inputs
	leaf   int8    // index into joinSearch.leaves; -1 for a join
}

// leafInfo holds the index alternatives of a scan fragment (see pkAccess).
type leafInfo struct {
	pkCol   int // -1: none apply
	lookup  est // one parameterized primary-key lookup (index nested loop inner)
	ordered est // the whole scan in primary-key order (merge join input)
}

// searchEdge is a joinEdge prepared for pricing: its ends as one-relation
// sets, their catalog NDVs, and whether each end is the leading
// primary-key column of a relation with index alternatives.
type searchEdge struct {
	l, r       relSet
	lNDV, rNDV float64
	lPK, rPK   bool
}

type joinSearch struct {
	edges     []searchEdge
	leaves    []leafInfo
	workBytes float64
	steps     []JoinStep
}

// searchJoins finds the block's join order without building a node: it
// returns the merge sequence of the cheapest tree (post-order, nil for a
// single relation) and that tree's total cost. Up to maxDPRels relations
// it is a DP over connected relation sets that visits the ordered pairs
// sets-ascending within each size and keeps the first cheapest (strict <),
// so exact cost ties resolve by enumeration order alone; larger blocks
// repeatedly merge the connected pair that is cheapest to join. Either
// way the components of a disconnected join graph are then cross-joined
// left-deep, largest first.
func (p *planner) searchJoins(scans []*joinTree, edges []joinEdge) ([]JoinStep, float64) {
	n := len(scans)
	if n == 1 {
		return nil, scans[0].node.Est.TotalCost
	}
	s := &joinSearch{
		edges:     make([]searchEdge, len(edges)),
		leaves:    make([]leafInfo, n),
		workBytes: p.workBytes(),
		steps:     make([]JoinStep, 0, n-1),
	}
	base := make([]frag, n)
	for i, t := range scans {
		base[i] = frag{est: estOf(t.node), set: t.set, leaf: int8(i)}
		for _, c := range t.schema {
			base[i].colsW += p.colWidth(c)
		}
		s.leaves[i].pkCol = -1
		if ri, pkCol, st := p.pkAccess(t); ri != nil {
			pages, sel := float64(st.Pages), t.node.Est.Selectivity
			s.leaves[i].pkCol = pkCol
			s.leaves[i].lookup, _ = indexScanEst(p.pkMatches(ri, pkCol, st), pages, sel, base[i].width)
			s.leaves[i].ordered, _ = indexScanEst(float64(st.RowCount), pages, sel, base[i].width)
		}
	}
	for i, e := range edges {
		se := searchEdge{
			l: relSet(0).with(e.lRel), lNDV: p.colNDV(e.lRel, e.lCol),
			r: relSet(0).with(e.rRel), rNDV: p.colNDV(e.rRel, e.rCol),
		}
		for j := range base {
			switch base[j].set {
			case se.l:
				se.lPK = s.leaves[j].pkCol == e.lCol
				base[j].nbr |= se.r
			case se.r:
				se.rPK = s.leaves[j].pkCol == e.rCol
				base[j].nbr |= se.l
			}
		}
		s.edges[i] = se
	}
	slices.SortFunc(base, func(a, b frag) int { return cmp.Compare(a.set, b.set) })
	if n > maxDPRels {
		return s.steps, s.greedy(base).total
	}
	return s.steps, s.dp(base).total
}

// join prices l x r exactly as bestJoin will build it: the same
// alternatives in the same order, the first cheapest kept.
func (s *joinSearch) join(l, r *frag) est {
	sel, keys := 1.0, 0
	var lPK, rPK bool
	for i := range s.edges {
		e := &s.edges[i]
		switch {
		case l.set&e.l != 0 && r.set&e.r != 0:
			sel /= keyNDV(e.lNDV, e.rNDV, l.rows, r.rows)
			lPK, rPK = lPK || e.lPK, rPK || e.rPK
		case l.set&e.r != 0 && r.set&e.l != 0:
			sel /= keyNDV(e.rNDV, e.lNDV, l.rows, r.rows)
			lPK, rPK = lPK || e.rPK, rPK || e.lPK
		default:
			continue
		}
		keys++
	}
	rows, width := joinCard(l.rows, r.rows, sel), l.colsW+r.colsW
	var best est
	found := false
	consider := func(c est) {
		if !found || c.total < best.total {
			best, found = c, true
		}
	}
	if keys > 0 {
		hj, _ := hashJoinEst(l.est, hashEst(r.est), rows, width, s.workBytes)
		consider(hj)
	}
	if r.leaf >= 0 && rPK {
		consider(indexLoopEst(l.est, s.leaves[r.leaf].lookup, rows, width))
	}
	mat := materializeEst(r.est)
	consider(nestedLoopEst(l.est, mat, rescanCost(plan.OpMaterialize, mat), rows, width))
	if keys == 1 && l.leaf >= 0 && r.leaf >= 0 && lPK && rPK {
		consider(mergeJoinEst(s.leaves[l.leaf].ordered, s.leaves[r.leaf].ordered, rows, width))
	}
	return best
}

// merged is the fragment for l x r priced at e.
func merged(l, r *frag, e est) frag {
	return frag{est: e, colsW: e.width, set: l.set | r.set, nbr: l.nbr | r.nbr, leaf: -1}
}

// dp is the exhaustive search. Relation sets are block-local here (bit i
// is base[i], which keeps the ascending order of the global sets) and
// index the fragment table directly.
func (s *joinSearch) dp(base []frag) frag {
	n := len(base)
	tab := make([]frag, 1<<n)
	sets := make([]uint16, n, 1<<n) // slots in use: by size, ascending within a size
	for i := range base {
		tab[1<<i], sets[i] = base[i], 1<<i
	}
	var start [maxDPRels + 1]int // sets[start[k]:start[k+1]] are the k-relation sets
	for size := 2; size <= n; size++ {
		start[size] = len(sets)
		for _, s1 := range sets[:start[size]] {
			k := size - bits.OnesCount16(s1)
			for _, s2 := range sets[start[k]:start[k+1]] {
				l, r := &tab[s1], &tab[s2]
				if s1&s2 != 0 || l.nbr&r.set == 0 {
					continue
				}
				c, u := s.join(l, r), &tab[s1|s2]
				if u.set == 0 {
					sets = append(sets, s1|s2)
				} else if !(c.total < u.total) {
					continue
				}
				*u = merged(l, r, c)
				u.pl, u.pr = s1, s2
			}
		}
		slices.Sort(sets[start[size]:])
	}
	// The fragments no edge leaves are the graph's components: one, the
	// full set, when it is connected. (base is free to hold them by now.)
	comps := base[:0]
	for _, c := range sets {
		if f := &tab[c]; f.nbr&^f.set == 0 {
			comps = append(comps, *f)
		}
	}
	return s.bridge(comps, tab)
}

// greedy is the bounded search for blocks too large for dp — O(n^3)
// pricings instead of O(3^n). It records each merge as it makes it.
func (s *joinSearch) greedy(cur []frag) frag {
	for {
		bi, bj := -1, -1
		var best est
		for i := range cur {
			for j := range cur {
				if i == j || cur[i].nbr&cur[j].set == 0 {
					continue
				}
				if c := s.join(&cur[i], &cur[j]); bi < 0 || c.total < best.total {
					bi, bj, best = i, j, c
				}
			}
		}
		if bi < 0 {
			return s.bridge(cur, nil)
		}
		s.steps = append(s.steps, JoinStep{L: uint64(cur[bi].set), R: uint64(cur[bj].set)})
		cur[bi] = merged(&cur[bi], &cur[bj], best)
		cur = slices.Delete(cur, bj, bj+1)
	}
}

// bridge cross-joins the components of a join graph left-deep, largest
// first (ties: lowest set), a dp component's own merges going ahead of the
// one that attaches it.
func (s *joinSearch) bridge(comps, tab []frag) frag {
	slices.SortFunc(comps, func(a, b frag) int {
		return cmp.Or(cmp.Compare(b.set.count(), a.set.count()), cmp.Compare(a.set, b.set))
	})
	acc := comps[0]
	s.emit(tab, &acc)
	for i := 1; i < len(comps); i++ {
		s.emit(tab, &comps[i])
		s.steps = append(s.steps, JoinStep{L: uint64(acc.set), R: uint64(comps[i].set)})
		acc = merged(&acc, &comps[i], s.join(&acc, &comps[i]))
	}
	return acc
}

// emit appends the post-order merge sequence dp built f by; scans and
// greedy's fragments have no recorded inputs (slot 0 is the empty set).
func (s *joinSearch) emit(tab []frag, f *frag) {
	if f.pl == 0 {
		return
	}
	l, r := &tab[f.pl], &tab[f.pr]
	s.emit(tab, l)
	s.emit(tab, r)
	s.steps = append(s.steps, JoinStep{L: uint64(l.set), R: uint64(r.set)})
}

// joinKey is one equi key of a join: offsets in the left and right
// input's schema.
type joinKey struct{ lCol, rCol int }

// Physical joins bestJoin chooses among, in the order it prices them.
const (
	hashJoin = iota
	indexLoop
	materialLoop
	mergeJoin
)

// bestJoin builds the cheapest physical join of two fragments. It prices
// every alternative from est numbers with the cost.go formulas
// joinSearch.join uses, in the same order — hash join, nested loop over a
// parameterized index scan, nested loop over a materialized inner, merge
// join — keeping the first cheapest, and builds only the winner's nodes.
// The output schema is l's with r's appended in place: applySteps hands
// every fragment to one join only.
func (p *planner) bestJoin(l, r *joinTree, edges []joinEdge) *joinTree {
	var keyBuf [8]joinKey
	keys := keyBuf[:0]
	joinSel := 1.0
	for _, e := range edges {
		lRel, lCol, rRel, rCol := e.lRel, e.lCol, e.rRel, e.rCol
		if !l.set.has(lRel) {
			lRel, lCol, rRel, rCol = rRel, rCol, lRel, lCol
		}
		if !l.set.has(lRel) || !r.set.has(rRel) {
			continue
		}
		lOff, ok := offsetIn(l.schema, lRel, lCol)
		if !ok {
			continue
		}
		rOff, _ := offsetIn(r.schema, rRel, rCol)
		keys = append(keys, joinKey{lOff, rOff})
		joinSel /= keyNDV(p.colNDV(lRel, lCol), p.colNDV(rRel, rCol), l.node.Est.Rows, r.node.Est.Rows)
	}
	joinRows := joinCard(l.node.Est.Rows, r.node.Est.Rows, joinSel)
	outSchema := append(l.schema, r.schema...)
	outCols := p.planColumns(outSchema)
	var width float64 // plan.Node.Width of the join node, summed in its order
	for _, c := range outCols {
		width += c.Width
	}
	lE, rE := estOf(l.node), estOf(r.node)

	best, bestE := -1, est{}
	consider := func(kind int, e est) {
		if best < 0 || e.total < bestE.total {
			best, bestE = kind, e
		}
	}
	// Hash join (only with at least one equi key).
	var hashE est
	var spillPages float64
	if len(keys) > 0 {
		hashE = hashEst(rE)
		var hj est
		hj, spillPages = hashJoinEst(lE, hashE, joinRows, width, p.workBytes())
		consider(hashJoin, hj)
	}
	// Nested loop with parameterized index scan: r must be a single base
	// relation whose PK leading column is one of the join keys (the first
	// such key is looked up; the others stay as a join filter).
	ri, pkCol, st := p.pkAccess(r)
	lookupKey := -1
	var lookupE est
	var lookupPages float64
	if ri != nil {
		for i, k := range keys {
			if r.schema[k.rCol].col == pkCol {
				lookupKey = i
				break
			}
		}
	}
	if lookupKey >= 0 {
		lookupE, lookupPages = indexScanEst(p.pkMatches(ri, pkCol, st), float64(st.Pages), r.node.Est.Selectivity, r.node.Width())
		// The inner side is paid per lookup, not as one full scan.
		consider(indexLoop, indexLoopEst(lE, lookupE, joinRows, width))
	}
	// Nested loop with materialized inner (works without equi keys too —
	// the only option for pure cross products and complex predicates).
	matE := materializeEst(rE)
	consider(materialLoop, nestedLoopEst(lE, matE, rescanCost(plan.OpMaterialize, matE), joinRows, width))
	// Merge join: both sides single base relations joined on their PK
	// leading columns (index order is key order).
	var li *relInfo
	var lSt *catalog.TableStats
	var lOrd, rOrd est
	var lOrdPages, rOrdPages float64
	if len(keys) == 1 {
		var lPK int
		li, lPK, lSt = p.pkAccess(l)
		if li != nil && ri != nil && l.schema[keys[0].lCol].col == lPK && r.schema[keys[0].rCol].col == pkCol {
			lOrd, lOrdPages = orderedScanEst(lSt, l.node)
			rOrd, rOrdPages = orderedScanEst(st, r.node)
			consider(mergeJoin, mergeJoinEst(lOrd, rOrd, joinRows, width))
		}
	}

	n := &plan.Node{JoinType: plan.JoinInner, Cols: outCols}
	switch best {
	case hashJoin:
		hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{r.node}, Cols: r.node.Cols}
		hashE.fill(hash, 1)
		n.Op, n.Children = plan.OpHashJoin, []*plan.Node{l.node, hash}
		n.HashKeysL = make([]plan.Scalar, len(keys))
		n.HashKeysR = make([]plan.Scalar, len(keys))
		for i, k := range keys {
			n.HashKeysL[i] = colRef(l.schema, k.lCol, 0)
			n.HashKeysR[i] = colRef(r.schema, k.rCol, 0)
		}
		if spillPages > 0 {
			n.Est.Pages = spillPages
		}
	case indexLoop:
		idx := &plan.Node{
			Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
			Index:       ri.table + "_pkey",
			Cols:        r.node.Cols,
			Filter:      r.node.Filter,
			LookupExprs: []plan.Scalar{colRef(l.schema, keys[lookupKey].lCol, 0)},
		}
		lookupE.fill(idx, r.node.Est.Selectivity)
		idx.Est.Pages = lookupPages
		n.Op, n.Children = plan.OpNestedLoop, []*plan.Node{l.node, idx}
		n.JoinFilter = keysEqual(keys, lookupKey, l.schema, r.schema)
	case materialLoop:
		mat := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{r.node}, Cols: r.node.Cols}
		matE.fill(mat, 1)
		n.Op, n.Children = plan.OpNestedLoop, []*plan.Node{l.node, mat}
		n.JoinFilter = keysEqual(keys, -1, l.schema, r.schema)
	case mergeJoin:
		n.Op = plan.OpMergeJoin
		n.Children = []*plan.Node{
			orderedScan(li, l.node, lOrd, lOrdPages),
			orderedScan(ri, r.node, rOrd, rOrdPages),
		}
		n.MergeKeysL = []int{keys[0].lCol}
		n.MergeKeysR = []int{keys[0].rCol}
	}
	bestE.fill(n, 1)
	return &joinTree{set: l.set.union(r.set), node: n, schema: outSchema}
}

// colRef references column off of schema at position base+off of a row.
func colRef(schema []schemaCol, off, base int) *plan.Col {
	return &plan.Col{Idx: base + off, K: schema[off].kind, Name: schema[off].name}
}

// keysEqual is every key but keys[skip] as a predicate on the joined row
// of l and r.
func keysEqual(keys []joinKey, skip int, l, r []schemaCol) (f plan.Scalar) {
	for i, k := range keys {
		if i != skip {
			f = andScalars(f, &plan.Bin{Op: plan.BEq, K: types.KindBool,
				L: colRef(l, k.lCol, 0), R: colRef(r, k.rCol, len(l))})
		}
	}
	return f
}

// orderedScanEst prices a full Index Scan of seq's table in primary-key
// order (a merge join input); pages is the heap pages it touches.
func orderedScanEst(st *catalog.TableStats, seq *plan.Node) (e est, pages float64) {
	return indexScanEst(float64(st.RowCount), float64(st.Pages), seq.Est.Selectivity, seq.Width())
}

// orderedScan converts a SeqScan into the full Index Scan priced by
// orderedScanEst, which yields rows in primary-key order.
func orderedScan(ri *relInfo, seq *plan.Node, e est, pages float64) *plan.Node {
	idx := &plan.Node{
		Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
		Index:  ri.table + "_pkey",
		Cols:   seq.Cols,
		Filter: seq.Filter,
	}
	e.fill(idx, seq.Est.Selectivity)
	idx.Est.Pages = pages
	return idx
}

func offsetIn(schema []schemaCol, rel, col int) (int, bool) {
	for i, sc := range schema {
		if sc.rel == rel && sc.col == col {
			return i, true
		}
	}
	return 0, false
}

func firstRel(s relSet) int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

func andScalars(a, b plan.Scalar) plan.Scalar {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &plan.Bin{Op: plan.BAnd, L: a, R: b, K: types.KindBool}
}
