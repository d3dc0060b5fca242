package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
)

// The node-building join choice this package made before bestJoin priced
// alternatives in numbers: bestJoinNodes is the parent's bestJoin
// verbatim — it builds and costs a node tree for every alternative and
// keeps the cheapest — with the node-filling cost methods only it calls.
// It is the oracle bestJoin is compared against, and the reference
// search's join (joinsearch_test.go).

// bestJoinNodes builds the cheapest physical join of two fragments, trying hash
// join (either build side), nested loop with a materialized inner, nested
// loop with a parameterized index scan, and merge join where applicable.
func (p *planner) bestJoinNodes(l, r *joinTree, edges []joinEdge) *joinTree {
	type keyed struct{ lCol, rCol int } // offsets in l.schema / r.schema
	var keys []keyed
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
		keys = append(keys, keyed{lOff, rOff})
		joinSel /= keyNDV(p.colNDV(lRel, lCol), p.colNDV(rRel, rCol), l.node.Est.Rows, r.node.Est.Rows)
	}
	joinRows := joinCard(l.node.Est.Rows, r.node.Est.Rows, joinSel)
	outSchema := make([]schemaCol, 0, len(l.schema)+len(r.schema))
	outSchema = append(append(outSchema, l.schema...), r.schema...)
	outCols := p.planColumns(outSchema)

	// colRef references column off of schema at position base+off of a row.
	colRef := func(schema []schemaCol, off, base int) *plan.Col {
		return &plan.Col{Idx: base + off, K: schema[off].kind, Name: schema[off].name}
	}
	// keysEqual is every key but keys[skip] as a predicate on the joined row.
	keysEqual := func(skip int) (f plan.Scalar) {
		for i, k := range keys {
			if i != skip {
				f = andScalars(f, &plan.Bin{Op: plan.BEq, K: types.KindBool,
					L: colRef(l.schema, k.lCol, 0), R: colRef(r.schema, k.rCol, len(l.schema))})
			}
		}
		return f
	}

	var best *joinTree
	consider := func(n *plan.Node) {
		if best == nil || n.Est.TotalCost < best.node.Est.TotalCost {
			best = &joinTree{set: l.set.union(r.set), node: n, schema: outSchema}
		}
	}

	// Hash join (only with at least one equi key).
	if len(keys) > 0 {
		hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{r.node}, Cols: r.node.Cols}
		p.costHash(hash)
		hj := &plan.Node{
			Op: plan.OpHashJoin, JoinType: plan.JoinInner,
			Children: []*plan.Node{l.node, hash},
			Cols:     outCols,
		}
		for _, k := range keys {
			hj.HashKeysL = append(hj.HashKeysL, colRef(l.schema, k.lCol, 0))
			hj.HashKeysR = append(hj.HashKeysR, colRef(r.schema, k.rCol, 0))
		}
		p.costHashJoin(hj, joinRows)
		consider(hj)
	}

	// Nested loop with parameterized index scan: r must be a single base
	// relation whose PK leading column is one of the join keys.
	ri, pkCol, st := p.pkAccess(r)
	if ri != nil {
		for i, k := range keys {
			if r.schema[k.rCol].col != pkCol {
				continue
			}
			idx := &plan.Node{
				Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
				Index:       ri.table + "_pkey",
				Cols:        r.node.Cols,
				Filter:      r.node.Filter,
				LookupExprs: []plan.Scalar{colRef(l.schema, k.lCol, 0)},
			}
			p.costIndexScan(idx, p.pkMatches(ri, pkCol, st), float64(st.Pages), r.node.Est.Selectivity)
			// Residual keys beyond the index one become a join filter.
			nl := &plan.Node{
				Op: plan.OpNestedLoop, JoinType: plan.JoinInner,
				Children:   []*plan.Node{l.node, idx},
				Cols:       outCols,
				JoinFilter: keysEqual(i),
			}
			// The inner side is paid per lookup, not as one full scan.
			indexLoopEst(estOf(l.node), estOf(idx), joinRows, nl.Width()).fill(nl, 1)
			consider(nl)
			break
		}
	}

	// Nested loop with materialized inner (works without equi keys too —
	// the only option for pure cross products and complex predicates).
	mat := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{r.node}, Cols: r.node.Cols}
	p.costMaterialize(mat)
	nl := &plan.Node{
		Op: plan.OpNestedLoop, JoinType: plan.JoinInner,
		Children:   []*plan.Node{l.node, mat},
		Cols:       outCols,
		JoinFilter: keysEqual(-1),
	}
	p.costNestedLoop(nl, joinRows)
	consider(nl)

	// Merge join: both sides single base relations joined on their PK
	// leading columns (index order is key order).
	if len(keys) == 1 {
		k := keys[0]
		li, lPK, lSt := p.pkAccess(l)
		if li != nil && ri != nil && l.schema[k.lCol].col == lPK && r.schema[k.rCol].col == pkCol {
			mj := &plan.Node{
				Op: plan.OpMergeJoin, JoinType: plan.JoinInner,
				Children:   []*plan.Node{p.orderedScanNode(li, lSt, l.node), p.orderedScanNode(ri, st, r.node)},
				Cols:       outCols,
				MergeKeysL: []int{k.lCol},
				MergeKeysR: []int{k.rCol},
			}
			p.costMergeJoin(mj, joinRows)
			consider(mj)
		}
	}
	return best
}

// orderedScanNode converts a SeqScan into a full Index Scan that yields rows
// in primary-key order (input for merge joins).
func (p *planner) orderedScanNode(ri *relInfo, st *catalog.TableStats, seq *plan.Node) *plan.Node {
	idx := &plan.Node{
		Op: plan.OpIndexScan, Table: ri.table, Alias: ri.alias,
		Index:  ri.table + "_pkey",
		Cols:   seq.Cols,
		Filter: seq.Filter,
	}
	p.costIndexScan(idx, float64(st.RowCount), float64(st.Pages), seq.Est.Selectivity)
	return idx
}

// costMaterialize fills the estimate for a materialize node.
func (p *planner) costMaterialize(n *plan.Node) {
	materializeEst(estOf(n.Children[0])).fill(n, 1)
}

// costNestedLoop fills the estimate for a nested-loop join.
func (p *planner) costNestedLoop(n *plan.Node, joinRows float64) {
	l, r := n.Children[0], n.Children[1]
	nestedLoopEst(estOf(l), estOf(r), rescanCost(r.Op, estOf(r)), joinRows, n.Width()).fill(n, 1)
}

// costMergeJoin fills the estimate for a merge join over sorted inputs.
func (p *planner) costMergeJoin(n *plan.Node, joinRows float64) {
	mergeJoinEst(estOf(n.Children[0]), estOf(n.Children[1]), joinRows, n.Width()).fill(n, 1)
}

// applyStepsNodes is applySteps over bestJoinNodes.
func (p *planner) applyStepsNodes(scans []*joinTree, steps []JoinStep, edges []joinEdge) (*joinTree, error) {
	built := append([]*joinTree(nil), scans...)
	find := func(s relSet) *joinTree {
		for _, t := range built {
			if t.set == s {
				return t
			}
		}
		return nil
	}
	cur := scans[0]
	for _, st := range steps {
		l, r := find(relSet(st.L)), find(relSet(st.R))
		if l == nil || r == nil {
			return nil, fmt.Errorf("merge of unknown fragments %#x x %#x", st.L, st.R)
		}
		cur = p.bestJoinNodes(l, r, edges)
		built = append(built, cur)
	}
	return cur, nil
}

// checkBestJoinOracle plans query with every searched block's merge
// sequence built a second time through the oracle: the trees must be
// deep-equal — the same physical join at every step, keys, filters and
// columns — and agree on the EXPLAIN text and every estimate bit.
func checkBestJoinOracle(t *testing.T, db *storage.Database, query string) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	p := &planner{db: db, relByID: map[int]*relInfo{}, workMemPages: 256}
	blocks := 0
	p.verify = func(scans []*joinTree, edges []joinEdge, steps []JoinStep, tree *joinTree) error {
		blocks++
		want, err := p.applyStepsNodes(scans, steps, edges)
		if err != nil {
			return err
		}
		if planDigest(tree.node) != planDigest(want.node) || !reflect.DeepEqual(tree, want) {
			return fmt.Errorf("bestJoin differs from the node-building oracle:\n--- got ---\n%s--- want ---\n%s",
				plan.Explain(tree.node), plan.Explain(want.node))
		}
		return nil
	}
	if _, err := p.run(stmt); err != nil {
		t.Fatalf("%v\nquery: %s", err, query)
	}
	if blocks == 0 {
		t.Fatalf("no join block searched\nquery: %s", query)
	}
}

// TestBestJoinMatchesOracle runs bestJoin and the node-building oracle
// side by side on ten draws of each of the 22 templates and on the
// random join graphs FuzzJoinSearch draws.
func TestBestJoinMatchesOracle(t *testing.T) {
	db := tpchDB(t)
	for _, tmpl := range append(append([]int(nil), tpch.Templates...), tpch.ExtraTemplates...) {
		rng := rand.New(rand.NewSource(1))
		for draw := 0; draw < 10; draw++ {
			gq, err := tpch.GenQuery(tmpl, rng)
			if err != nil {
				t.Fatal(err)
			}
			checkBestJoinOracle(t, db, gq.SQL)
		}
	}
	graphs := 400
	if testing.Short() || raceEnabled {
		graphs = 100
	}
	for seed := int64(0); seed < int64(graphs); seed++ {
		checkBestJoinOracle(t, db, randomJoinSQL(rand.New(rand.NewSource(seed))))
	}
}
