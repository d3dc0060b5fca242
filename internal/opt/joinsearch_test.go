package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
	"qpp/internal/tpch"
)

// refSearch is the join search this package ran before the cost-only one
// replaced it: a DP that builds every candidate join through bestJoin and
// keeps the cheapest tree per relation set. It is the oracle the new
// search is compared against — same enumeration, same tie rule, but the
// costs it compares are read off real nodes. bestJoin no longer records
// which fragments a tree was built from, so the oracle keeps that in prov.
type refSearch struct {
	p    *planner
	prov map[*joinTree][2]*joinTree
}

func (r *refSearch) bestJoin(t1, t2 *joinTree, edges []joinEdge) (*joinTree, error) {
	t := r.p.bestJoinNodes(t1, t2, edges)
	r.prov[t] = [2]*joinTree{t1, t2}
	return t, nil
}

func (r *refSearch) searchJoins(scans []*joinTree, edges []joinEdge) (*joinTree, error) {
	if len(scans) == 1 {
		return scans[0], nil
	}
	memo := make(map[relSet]*joinTree, 2*len(scans))
	var full relSet
	for _, s := range scans {
		memo[s.set] = s
		full = full.union(s.set)
	}
	sets := make([]relSet, 0, len(memo))
	for s := range memo {
		sets = append(sets, s)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
	// DP by increasing subset size over connected combinations.
	for size := 2; size <= len(scans); size++ {
		grown := []relSet{}
		for _, s1 := range sets {
			for _, s2 := range sets {
				if s1&s2 != 0 {
					continue
				}
				union := s1.union(s2)
				if union.count() != size {
					continue
				}
				t1, ok1 := memo[union&s1]
				t2, ok2 := memo[union&s2]
				if !ok1 || !ok2 {
					continue
				}
				if !refConnected(t1.set, t2.set, edges) {
					continue
				}
				cand, err := r.bestJoin(t1, t2, edges)
				if err != nil {
					return nil, err
				}
				if prev, ok := memo[union]; !ok || cand.node.Est.TotalCost < prev.node.Est.TotalCost {
					if _, ok := memo[union]; !ok {
						grown = append(grown, union)
					}
					memo[union] = cand
				}
			}
		}
		sort.Slice(grown, func(i, j int) bool { return grown[i] < grown[j] })
		sets = append(sets, grown...)
	}
	if t, ok := memo[full]; ok {
		return t, nil
	}
	// Disconnected join graph: greedily cross-join the components.
	components := []*joinTree{}
	covered := relSet(0)
	// Pick the largest memoized fragments first.
	memoKeys := make([]relSet, 0, len(memo))
	for s := range memo {
		memoKeys = append(memoKeys, s)
	}
	sort.Slice(memoKeys, func(i, j int) bool { return memoKeys[i] < memoKeys[j] })
	for covered != full {
		var best *joinTree
		for _, s := range memoKeys {
			if s&covered != 0 {
				continue
			}
			if t := memo[s]; best == nil || s.count() > best.set.count() {
				best = t
			}
		}
		if best == nil {
			return nil, fmt.Errorf("opt: join ordering failed")
		}
		components = append(components, best)
		covered = covered.union(best.set)
	}
	cur := components[0]
	for _, c := range components[1:] {
		var err error
		cur, err = r.bestJoin(cur, c, edges)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func refConnected(s1, s2 relSet, edges []joinEdge) bool {
	for _, e := range edges {
		if (s1.has(e.lRel) && s2.has(e.rRel)) || (s1.has(e.rRel) && s2.has(e.lRel)) {
			return true
		}
	}
	return false
}

// appendSteps emits the post-order merge sequence that built t.
func (r *refSearch) appendSteps(out []JoinStep, t *joinTree) []JoinStep {
	pv, ok := r.prov[t]
	if !ok {
		return out
	}
	out = r.appendSteps(out, pv[0])
	out = r.appendSteps(out, pv[1])
	return append(out, JoinStep{L: uint64(pv[0].set), R: uint64(pv[1].set)})
}

// planAgainstReference plans stmt with the reference search run beside the
// production one on every block the production search takes exhaustively
// (the reference has no greedy mode to compare the larger ones to): the merge
// sequences must be identical and the tree applySteps built must be
// reflect.DeepEqual to the one the reference search assembled itself.
func planAgainstReference(db *storage.Database, stmt *sql.SelectStmt) (*plan.Node, *JoinTrace, error) {
	p := &planner{db: db, relByID: map[int]*relInfo{}, workMemPages: 256, rec: &JoinTrace{}}
	p.verify = func(scans []*joinTree, edges []joinEdge, steps []JoinStep, tree *joinTree) error {
		if len(scans) > maxDPRels {
			return nil
		}
		ref := &refSearch{p: p, prov: map[*joinTree][2]*joinTree{}}
		want, err := ref.searchJoins(scans, edges)
		if err != nil {
			return fmt.Errorf("reference search: %w", err)
		}
		if wantSteps := ref.appendSteps(nil, want); !reflect.DeepEqual(steps, wantSteps) {
			return fmt.Errorf("merge sequence differs from the reference search:\n got %v\nwant %v", steps, wantSteps)
		}
		if !reflect.DeepEqual(tree, want) {
			return fmt.Errorf("built tree differs from the reference search's:\n--- got ---\n%s--- want ---\n%s",
				plan.Explain(tree.node), plan.Explain(want.node))
		}
		return nil
	}
	root, err := p.run(stmt)
	return root, p.rec, err
}

// checkAgainstReference is planAgainstReference plus the outer contract:
// the plain entry points return that same plan and trace.
func checkAgainstReference(t testing.TB, db *storage.Database, query string) {
	t.Helper()
	parse := func() *sql.SelectStmt {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		return stmt
	}
	want, wantTrace, err := planAgainstReference(db, parse())
	if err != nil {
		t.Fatalf("%v\nquery: %s", err, query)
	}
	got, gotTrace, err := PlanTraced(db, parse())
	if err != nil {
		t.Fatalf("PlanTraced: %v\nquery: %s", err, query)
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) || !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanTraced differs from the verified planning run\nquery: %s", query)
	}
}

// joinGraphTables are the relations randomJoinSQL draws from: integer
// columns (leading primary-key column first) that may be equated with any
// other, and local filters that move the scan's cardinality.
var joinGraphTables = []struct {
	from    string
	cols    []string
	filters []string
}{
	{"lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"}, []string{"l_quantity < 10", "l_shipdate > date '1997-01-01'"}},
	{"orders", []string{"o_orderkey", "o_custkey"}, []string{"o_orderdate < date '1993-06-01'", "o_totalprice > 300000"}},
	{"customer", []string{"c_custkey", "c_nationkey"}, []string{"c_acctbal > 9000", "c_mktsegment = 'BUILDING'"}},
	{"supplier", []string{"s_suppkey", "s_nationkey"}, []string{"s_acctbal < 0"}},
	{"part", []string{"p_partkey", "p_size"}, []string{"p_size = 15", "p_type like '%BRASS'"}},
	{"partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty"}, []string{"ps_supplycost < 100"}},
	{"nation", []string{"n_nationkey", "n_regionkey"}, []string{"n_name = 'FRANCE'"}},
	{"region", []string{"r_regionkey"}, []string{"r_name = 'ASIA'"}},
	{"(select o_custkey as dk, count(*) as dc from orders group by o_custkey)", []string{"dk", "dc"}, []string{"dc > 2"}},
}

// randomJoinSQL draws a count(*) query over a random join graph of 2–8
// relations: a third of the draws self-join one table on one column (every
// order of such a block costs the same in places, so the tie rule decides),
// the rest mix tables and a derived table; edges form a spanning forest
// (sometimes deliberately disconnected) plus cycle-closing and verbatim
// duplicate edges.
func randomJoinSQL(rng *rand.Rand) string {
	n := 2 + rng.Intn(7)
	self := rng.Intn(3) == 0
	selfTable, selfCol := rng.Intn(len(joinGraphTables)-1), 0
	if rng.Intn(4) == 0 {
		selfCol = rng.Intn(len(joinGraphTables[selfTable].cols))
	}
	rels := make([]int, n)
	var from, conj []string
	for i := range rels {
		rels[i] = rng.Intn(len(joinGraphTables))
		if self {
			rels[i] = selfTable
		}
		tb := joinGraphTables[rels[i]]
		from = append(from, fmt.Sprintf("%s as t%d", tb.from, i))
		if !self && rng.Intn(5) < 2 {
			conj = append(conj, fmt.Sprintf("t%d.%s", i, tb.filters[rng.Intn(len(tb.filters))]))
		}
	}
	col := func(i int) string {
		cols := joinGraphTables[rels[i]].cols
		c := rng.Intn(len(cols))
		if self {
			c = selfCol
		}
		return fmt.Sprintf("t%d.%s", i, cols[c])
	}
	var edges []string
	split := rng.Intn(4) == 0
	for i := 1; i < n; i++ {
		if split && rng.Intn(3) == 0 {
			continue
		}
		edges = append(edges, col(i)+" = "+col(rng.Intn(i)))
	}
	for k := rng.Intn(3); k > 0; k-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			edges = append(edges, col(a)+" = "+col(b))
		}
	}
	if len(edges) > 0 && rng.Intn(5) == 0 {
		edges = append(edges, edges[rng.Intn(len(edges))])
	}
	conj = append(conj, edges...)
	rng.Shuffle(len(conj), func(i, j int) { conj[i], conj[j] = conj[j], conj[i] })
	q := "select count(*) from " + strings.Join(from, ", ")
	if len(conj) > 0 {
		q += " where " + strings.Join(conj, " and ")
	}
	return q
}

// TestJoinSearchMatchesReference is the differential oracle of the
// cost-only search: on the paper's templates over several databases and
// on random join graphs, every block's merge sequence and built tree
// equal the node-building reference search's.
func TestJoinSearchMatchesReference(t *testing.T) {
	sfs, seeds, draws, graphs := []float64{0.001, 0.005, 0.02}, []int64{1, 2, 3}, 40, 400
	if testing.Short() || raceEnabled {
		sfs, seeds, draws, graphs = sfs[:2], seeds[:1], 4, 100
	}
	templates := append(append([]int{}, tpch.Templates...), tpch.ExtraTemplates...)
	for _, sf := range sfs {
		for _, seed := range seeds {
			db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: sf, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, tmpl := range templates {
				rng := rand.New(rand.NewSource(seed*1000 + int64(tmpl)))
				for d := 0; d < draws; d++ {
					gq, err := tpch.GenQuery(tmpl, rng)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, db, gq.SQL)
				}
			}
		}
	}
	db := tpchDB(t)
	for seed := int64(0); seed < int64(graphs); seed++ {
		checkAgainstReference(t, db, randomJoinSQL(rand.New(rand.NewSource(seed))))
	}
}

// FuzzJoinSearch feeds seeds to randomJoinSQL: whatever graph comes out,
// the production search and the reference search agree (a planning error
// from either fails the run: every generated query is plannable).
func FuzzJoinSearch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	db := tpchDB(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstReference(t, db, randomJoinSQL(rand.New(rand.NewSource(seed))))
	})
}

// TestJoinSearchAllocatesPerJoinNotPerPair pins what made cold planning
// cheap: the search may allocate its tables once per block, but nothing
// per candidate pair, so planning Q8 (seven joins, 232 candidate pairs)
// costs no more allocations than replaying its trace plus a constant per
// block.
func TestJoinSearchAllocatesPerJoinNotPerPair(t *testing.T) {
	db := tpchDB(t)
	gq, err := tpch.GenQuery(8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(gq.SQL)
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := PlanTraced(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	cold := testing.AllocsPerRun(20, func() {
		if _, err := Plan(db, stmt); err != nil {
			t.Fatal(err)
		}
	})
	replay := testing.AllocsPerRun(20, func() {
		if _, err := PlanReplay(db, stmt, trace); err != nil {
			t.Fatal(err)
		}
	})
	// searchJoins: the joinSearch, its edges, leaves and steps, the base
	// fragments, the DP table and its slot list.
	const perBlock = 8
	if limit := replay + perBlock*float64(len(trace.Blocks)); cold > limit {
		t.Fatalf("cold plan of Q8: %.0f allocations, replay of its trace: %.0f (+%d per block allowed = %.0f)", cold, replay, perBlock, limit)
	}
}

// manyWayJoin renders count(*) over n aliases of orders joined on the
// primary key, every alias to the first (star) or each to its
// predecessor (chain).
func manyWayJoin(n int, star bool) string {
	var from, conj []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("orders o%d", i))
		if i > 0 {
			to := i - 1
			if star {
				to = 0
			}
			conj = append(conj, fmt.Sprintf("o%d.o_orderkey = o%d.o_orderkey", to, i))
		}
	}
	return "select count(*) from " + strings.Join(from, ", ") + " where " + strings.Join(conj, " and ")
}

// TestLargeJoinBlocksAreBounded pins the cap on the exhaustive search: a
// block above maxDPRels is merged greedily, so a short request with many
// relations plans in milliseconds instead of pinning a core (the DP cost
// 190 ms on a 12-way star and x4-5 per two more relations), and what it
// plans still returns the right rows.
func TestLargeJoinBlocksAreBounded(t *testing.T) {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	orders, _ := db.TableStats("orders")
	const budget = 50 * time.Millisecond
	for _, c := range []struct {
		name string
		n    int
		star bool
	}{{"star12", 12, true}, {"star20", 20, true}, {"chain20", 20, false}} {
		query := manyWayJoin(c.n, c.star)
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ { // best of three: the bound is on the work, not on a GC pause
			start := time.Now()
			if _, err := Plan(db, stmt); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			best = min(best, time.Since(start))
		}
		t.Logf("%s: planned in %v", c.name, best)
		if best > budget {
			t.Errorf("%s: planned in %v, budget %v", c.name, best, budget)
		}
		_, rows := runQuery(t, db, query)
		if len(rows) != 1 || rows[0][0].I() != orders.RowCount {
			t.Errorf("%s: got %v, want one row counting %d orders", c.name, rows, orders.RowCount)
		}
	}
}

// TestDuplicateJoinEdgeStaysAsResidual pins a detail no differential
// test sees (both searches build through bestJoin): an index nested loop
// drops from its join filter only the key it looks up by, so a predicate
// written twice is still checked once — which is what the goldens of
// every plan with a repeated edge were recorded with.
func TestDuplicateJoinEdgeStaysAsResidual(t *testing.T) {
	got := plan.Explain(planQuery(t, tpchDB(t), `select count(*) from region r, orders o
		where r.r_regionkey = o.o_orderkey and r.r_regionkey = o.o_orderkey`))
	for _, want := range []string{"Index Scan", "Join Filter: (r_regionkey = o_orderkey)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("plan lacks %q:\n%s", want, got)
		}
	}
}
