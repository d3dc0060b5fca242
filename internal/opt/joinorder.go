package opt

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"qpp/internal/arena"
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
	if cs := p.colStats(schemaCol{rel: int32(rel), col: int32(col)}); cs != nil {
		return cs.NDV
	}
	return 0
}

// clampNDV bounds a column's distinct count by the rows its relation
// contributes; an unknown count (0) assumes every row distinct.
func clampNDV(ndv, relRows float64) float64 {
	if ndv > 0 {
		return min(ndv, max(1, relRows))
	}
	return max(1, relRows)
}

// ndvOf estimates the distinct count of a column, clamped by rel rows.
func (p *planner) ndvOf(rel, col int, relRows float64) float64 {
	return clampNDV(p.colNDV(rel, col), relRows)
}

// keyNDV is what one equi key divides the join selectivity by.
func keyNDV(lNDV, rNDV, lRows, rRows float64) float64 {
	// math.Max where both sides are estimates: rows overflow to +Inf on
	// huge cross joins and can be NaN (+Inf times an underflowed
	// selectivity), and math.Max(NaN, +Inf) is +Inf where the builtin max
	// gives NaN.
	return max(1, math.Max(clampNDV(lNDV, lRows), clampNDV(rNDV, rRows)))
}

// joinCard is the output cardinality of a join with selectivity sel.
func joinCard(lRows, rRows, sel float64) float64 {
	return max(1, lRows*rRows*sel)
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
	return max(1, float64(st.RowCount)/p.ndvOf(ri.id, pkCol, float64(st.RowCount)))
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
// joined once, which is what lets every join's output schema and columns
// be stretches of the block's one layout (layOut). Steps that do not fit
// the block are an error (replay callers fall back to cold planning),
// never a panic.
func (p *planner) applySteps(scans []*joinTree, steps []JoinStep, edges []joinEdge) (*joinTree, error) {
	sets := relSets.Make(p.mem, len(scans)+len(steps))[:len(scans)]
	var full relSet
	for i, t := range scans {
		sets[i] = t.set
		full = full.union(t.set)
	}
	take := func(s relSet) bool {
		i := slices.Index(sets, s)
		if i >= 0 {
			sets = slices.Delete(sets, i, i+1)
		}
		return i >= 0
	}
	for _, st := range steps {
		l, r := relSet(st.L), relSet(st.R)
		if !take(l) || !take(r) || l&r != 0 {
			return nil, fmt.Errorf("opt: join trace mismatch: merge of unknown, consumed or overlapping fragments %#x x %#x", st.L, st.R)
		}
		sets = append(sets, l|r)
	}
	if len(sets) != 1 || sets[0] != full {
		return nil, fmt.Errorf("opt: join trace mismatch: recorded merges do not cover the FROM list")
	}
	if len(steps) == 0 {
		return scans[0], nil
	}
	lay := p.layOut(scans, steps, full)
	live := treeLists.Clone(p.mem, scans) // fragments not yet consumed
	find := func(s relSet) *joinTree {
		i := slices.IndexFunc(live, func(t *joinTree) bool { return t.set == s })
		t := live[i]
		live = slices.Delete(live, i, i+1)
		return t
	}
	var cur *joinTree
	for _, st := range steps {
		l, r := find(relSet(st.L)), find(relSet(st.R))
		schema, cols := lay.of(l.set | r.set)
		cur = p.bestJoin(l, r, edges, schema, cols)
		live = append(live, cur)
	}
	return cur, nil
}

// blockLayout is a join block's output schema and plan columns, each one
// array in the column order of the tree the block's steps build. Every
// fragment of that tree is one stretch of both, its left input's stretch
// followed by its right input's, so the joins of a block share two arrays
// instead of allocating a schema and a column list each (the Hash node
// already shares its child's columns the same way).
type blockLayout struct {
	schema    []schemaCol
	cols      []plan.Column
	stretches []stretch
}

// stretch is where one fragment's columns lie in its block's layout.
type stretch struct {
	set    relSet
	lo, hi int
}

// find returns the stretch of the fragment over set.
func (b *blockLayout) find(set relSet) stretch {
	return b.stretches[slices.IndexFunc(b.stretches, func(s stretch) bool { return s.set == set })]
}

// of returns the schema and columns of the fragment over set, capped so an
// append to either copies.
func (b *blockLayout) of(set relSet) ([]schemaCol, []plan.Column) {
	s := b.find(set)
	return b.schema[s.lo:s.hi:s.hi], b.cols[s.lo:s.hi:s.hi]
}

// layOut lays out a block whose steps applySteps has checked: top-down
// from the whole block, a merge's left input starts where its output does
// and its right input where the left one ends.
func (p *planner) layOut(scans []*joinTree, steps []JoinStep, full relSet) blockLayout {
	width := func(s relSet) (n int) {
		for _, t := range scans {
			if t.set&^s == 0 {
				n += len(t.schema)
			}
		}
		return n
	}
	b := blockLayout{stretches: stretches.Make(p.mem, 2*len(steps)+1)[:1]}
	b.stretches[0] = stretch{full, 0, width(full)}
	for i := len(steps) - 1; i >= 0; i-- {
		l, r := relSet(steps[i].L), relSet(steps[i].R)
		out := b.find(l | r)
		mid := out.lo + width(l)
		b.stretches = append(b.stretches, stretch{l, out.lo, mid}, stretch{r, mid, out.hi})
	}
	b.schema = schemaCols.Make(p.mem, width(full))
	for _, t := range scans {
		copy(b.schema[b.find(t.set).lo:], t.schema)
	}
	b.cols = p.planColumns(b.schema)
	return b
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
	mem       *searchMemory
	workBytes float64
	steps     []JoinStep
}

// searchMemory is one join search's working arrays: its edges, leaves and
// base fragments, and dp's fragment table (1<<n slots: 16 KiB for the
// 8-way join of TPC-H Q8) with its list of the slots in use. Every cold
// plan of a join searches, so they are pooled; none holds a pointer, so a
// pooled one costs the collector nothing.
type searchMemory struct {
	edges  []searchEdge
	leaves []leafInfo
	base   []frag
	tab    []frag
	sets   []uint16
}

var searchMemories = sync.Pool{New: func() any { return new(searchMemory) }}

// zeroed is buf resized to n zero elements, reallocated only when it is
// too small.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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
	mem := searchMemories.Get().(*searchMemory)
	defer searchMemories.Put(mem)
	mem.edges = zeroed(mem.edges, len(edges))
	mem.leaves = zeroed(mem.leaves, n)
	mem.base = zeroed(mem.base, n)
	s := &joinSearch{
		edges:     mem.edges,
		leaves:    mem.leaves,
		mem:       mem,
		workBytes: p.workBytes(),
		steps:     joinSteps.Make(p.mem, n-1)[:0],
	}
	base := mem.base
	for i, t := range scans {
		base[i] = frag{est: estOf(t.node), set: t.set, leaf: int8(i)}
		for _, c := range t.schema {
			base[i].colsW += colWidth(p.column(c).Type)
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
	s.mem.tab = zeroed(s.mem.tab, 1<<n)
	tab := s.mem.tab
	if cap(s.mem.sets) < 1<<n {
		s.mem.sets = make([]uint16, 0, 1<<n)
	}
	sets := s.mem.sets[:n] // slots in use: by size, ascending within a size
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
// outSchema and outCols are the join's output schema and columns, l's
// followed by r's, from the block's layout.
func (p *planner) bestJoin(l, r *joinTree, edges []joinEdge, outSchema []schemaCol, outCols []plan.Column) *joinTree {
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
			if int(r.schema[k.rCol].col) == pkCol {
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
		if li != nil && ri != nil && int(l.schema[keys[0].lCol].col) == lPK && int(r.schema[keys[0].rCol].col) == pkCol {
			lOrd, lOrdPages = orderedScanEst(lSt, l.node)
			rOrd, rOrdPages = orderedScanEst(st, r.node)
			consider(mergeJoin, mergeJoinEst(lOrd, rOrd, joinRows, width))
		}
	}

	j := joinPayloads.New(p.mem, plan.JoinPayload{Type: plan.JoinInner})
	n := p.node(plan.Node{Cols: outCols, Join: j})
	switch best {
	case hashJoin:
		hash := p.node(plan.Node{Op: plan.OpHash, Children: p.children(r.node), Cols: r.node.Cols})
		hashE.fill(hash, 1)
		n.Op, n.Children = plan.OpHashJoin, p.children(l.node, hash)
		j.HashKeysL = scalars.Make(p.mem, len(keys))
		j.HashKeysR = scalars.Make(p.mem, len(keys))
		for i, k := range keys {
			j.HashKeysL[i] = p.colRef(l.schema, k.lCol, 0)
			j.HashKeysR[i] = p.colRef(r.schema, k.rCol, 0)
		}
		if spillPages > 0 {
			n.Est.Pages = spillPages
		}
	case indexLoop:
		idx := p.node(plan.Node{
			Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
			Cols:   r.node.Cols,
			Filter: r.node.Filter,
			Lookup: lookups.New(p.mem, plan.LookupPayload{Exprs: scalars.Clone(p.mem, []plan.Scalar{p.colRef(l.schema, keys[lookupKey].lCol, 0)})}),
		})
		lookupE.fill(idx, r.node.Est.Selectivity)
		idx.Est.Pages = lookupPages
		n.Op, n.Children = plan.OpNestedLoop, p.children(l.node, idx)
		j.Filter = p.keysEqual(keys, lookupKey, l.schema, r.schema)
	case materialLoop:
		mat := p.node(plan.Node{Op: plan.OpMaterialize, Children: p.children(r.node), Cols: r.node.Cols})
		matE.fill(mat, 1)
		n.Op, n.Children = plan.OpNestedLoop, p.children(l.node, mat)
		j.Filter = p.keysEqual(keys, -1, l.schema, r.schema)
	case mergeJoin:
		n.Op = plan.OpMergeJoin
		n.Children = p.children(
			p.orderedScan(li, l.node, lOrd, lOrdPages),
			p.orderedScan(ri, r.node, rOrd, rOrdPages),
		)
		j.MergeKeysL = intLists.Clone(p.mem, []int{keys[0].lCol})
		j.MergeKeysR = intLists.Clone(p.mem, []int{keys[0].rCol})
	}
	bestE.fill(n, 1)
	return p.tree(joinTree{set: l.set.union(r.set), node: n, schema: outSchema})
}

// colRef references column off of schema at position base+off of a row.
func (p *planner) colRef(schema []schemaCol, off, base int) *plan.Col {
	c := p.column(schema[off])
	return p.col(plan.Col{Idx: base + off, K: c.Type, Name: c.Name})
}

// keysEqual is every key but keys[skip] as a predicate on the joined row
// of l and r.
func (p *planner) keysEqual(keys []joinKey, skip int, l, r []schemaCol) (f plan.Scalar) {
	for i, k := range keys {
		if i != skip {
			f = andScalars(p.mem, f, binScalars.New(p.mem, plan.Bin{Op: plan.BEq, K: types.KindBool,
				L: p.colRef(l, k.lCol, 0), R: p.colRef(r, k.rCol, len(l))}))
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
func (p *planner) orderedScan(ri *relInfo, seq *plan.Node, e est, pages float64) *plan.Node {
	idx := p.node(plan.Node{
		Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
		Cols:   seq.Cols,
		Filter: seq.Filter,
	})
	e.fill(idx, seq.Est.Selectivity)
	idx.Est.Pages = pages
	return idx
}

func offsetIn(schema []schemaCol, rel, col int) (int, bool) {
	for i, sc := range schema {
		if int(sc.rel) == rel && int(sc.col) == col {
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

// andScalars is the conjunction of x and y, either of which may be nil, in
// mem's memory.
func andScalars(mem *arena.Arena, x, y plan.Scalar) plan.Scalar {
	if x == nil {
		return y
	}
	if y == nil {
		return x
	}
	return binScalars.New(mem, plan.Bin{Op: plan.BAnd, L: x, R: y, K: types.KindBool})
}
