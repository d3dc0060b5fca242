package opt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

var testDBCache *storage.Database

func tpchDB(t testing.TB) *storage.Database {
	t.Helper()
	if testDBCache == nil {
		db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		testDBCache = db
	}
	return testDBCache
}

func planQuery(t *testing.T, db *storage.Database, query string) *plan.Node {
	t.Helper()
	node, err := PlanSQL(db, query)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	return node
}

func runQuery(t *testing.T, db *storage.Database, query string) (*plan.Node, []plan.Row) {
	t.Helper()
	node := planQuery(t, db, query)
	prof := vclock.DefaultProfile()
	prof.NoiseSigma = 0
	res, err := exec.Run(db, node, vclock.NewClock(prof, 1), exec.Options{})
	if err != nil {
		t.Fatalf("run %q: %v\nplan:\n%s", query, err, plan.Explain(node))
	}
	return node, res.Rows
}

func TestPlanSimpleScan(t *testing.T) {
	db := tpchDB(t)
	node, rows := runQuery(t, db, "select n_name from nation where n_regionkey = 0")
	if len(rows) != 5 {
		t.Fatalf("rows %d want 5 (African nations)", len(rows))
	}
	if node.Est.TotalCost <= 0 {
		t.Fatal("plan must be costed")
	}
}

func TestPlanFilterCorrectness(t *testing.T) {
	db := tpchDB(t)
	// Cross-check against direct computation on the raw table.
	_, rows := runQuery(t, db, `
		select count(*), sum(l_extendedprice * l_discount)
		from lineitem
		where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
		  and l_discount between 0.05 and 0.07 and l_quantity < 24`)
	li, _ := db.Table(tpch.Lineitem)
	lo, hi := types.MustDate("1994-01-01"), types.MustDate("1995-01-01")
	var wantCount int64
	var wantSum float64
	for _, r := range li.Rows {
		if r[10].I() >= lo && r[10].I() < hi &&
			r[6].F() >= 0.05-1e-9 && r[6].F() <= 0.07+1e-9 && r[4].F() < 24 {
			wantCount++
			wantSum += r[5].F() * r[6].F()
		}
	}
	if rows[0][0].I() != wantCount {
		t.Fatalf("count %v want %v", rows[0][0].I(), wantCount)
	}
	if math.Abs(rows[0][1].F()-wantSum) > 1e-6*math.Max(1, wantSum) {
		t.Fatalf("sum %v want %v", rows[0][1].F(), wantSum)
	}
}

func TestPlanJoinCorrectness(t *testing.T) {
	db := tpchDB(t)
	_, rows := runQuery(t, db, `
		select count(*) from orders, customer
		where o_custkey = c_custkey and c_mktsegment = 'BUILDING'`)
	cust, _ := db.Table(tpch.Customer)
	orders, _ := db.Table(tpch.Orders)
	seg := map[int64]bool{}
	for _, c := range cust.Rows {
		if c[6].S() == "BUILDING" {
			seg[c[0].I()] = true
		}
	}
	var want int64
	for _, o := range orders.Rows {
		if seg[o[1].I()] {
			want++
		}
	}
	if rows[0][0].I() != want {
		t.Fatalf("join count %v want %v", rows[0][0].I(), want)
	}
}

func TestPlanGroupByHavingOrder(t *testing.T) {
	db := tpchDB(t)
	_, rows := runQuery(t, db, `
		select o_orderpriority, count(*) as cnt from orders
		group by o_orderpriority having count(*) > 1
		order by cnt desc, o_orderpriority`)
	if len(rows) != 5 {
		t.Fatalf("groups %d want 5", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1].I() > rows[i-1][1].I() {
			t.Fatal("not sorted by count desc")
		}
	}
}

func TestAllTemplatesPlanAndRun(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(3))
	for _, tmpl := range tpch.Templates {
		q, err := tpch.GenQuery(tmpl, rng)
		if err != nil {
			t.Fatal(err)
		}
		node, err := PlanSQL(db, q.SQL)
		if err != nil {
			t.Fatalf("template %d: plan: %v\nsql: %s", tmpl, err, q.SQL)
		}
		prof := vclock.DefaultProfile()
		prof.NoiseSigma = 0
		res, err := exec.Run(db, node, vclock.NewClock(prof, int64(tmpl)), exec.Options{})
		if err != nil {
			t.Fatalf("template %d: run: %v\nplan:\n%s", tmpl, err, plan.Explain(node))
		}
		if res.Elapsed <= 0 {
			t.Fatalf("template %d: no virtual time recorded", tmpl)
		}
		if !node.Act.Executed {
			t.Fatalf("template %d: root not instrumented", tmpl)
		}
		// Estimates must be present on every node of the tree.
		node.Walk(func(n *plan.Node) {
			if n.Est.TotalCost <= 0 && n.Op != plan.OpSeqScan {
				t.Errorf("template %d: node %s has no cost", tmpl, n)
			}
		})
	}
}

func TestSubqueryStructureExclusions(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(4))
	withSubs := map[int]bool{2: true, 11: true, 15: true, 22: true}
	for _, tmpl := range tpch.Templates {
		q, err := tpch.GenQuery(tmpl, rng)
		if err != nil {
			t.Fatal(err)
		}
		node, err := PlanSQL(db, q.SQL)
		if err != nil {
			t.Fatalf("template %d: %v", tmpl, err)
		}
		got := node.HasSubqueryStructures()
		if got != withSubs[tmpl] {
			t.Errorf("template %d: HasSubqueryStructures = %v, want %v\nplan:\n%s",
				tmpl, got, withSubs[tmpl], plan.Explain(node))
		}
	}
}

func TestQ6AgainstBruteForce(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(5))
	q, _ := tpch.GenQuery(6, rng)
	node := planQuery(t, db, q.SQL)
	prof := vclock.DefaultProfile()
	prof.NoiseSigma = 0
	res, err := exec.Run(db, node, vclock.NewClock(prof, 1), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows %d", len(res.Rows))
	}
}

func TestQ13LeftJoinShape(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(6))
	q, _ := tpch.GenQuery(13, rng)
	node, rows := runQuery(t, db, q.SQL)
	// Every customer appears exactly once in the inner aggregation, so the
	// custdist counts must sum to the number of customers.
	var total int64
	for _, r := range rows {
		total += r[1].I()
	}
	cust, _ := db.Table(tpch.Customer)
	if total != int64(len(cust.Rows)) {
		t.Fatalf("custdist sums to %d, want %d customers", total, len(cust.Rows))
	}
	// The plan must contain a left hash join.
	foundLeft := false
	node.Walk(func(n *plan.Node) {
		if n.Op == plan.OpHashJoin && n.JoinType == plan.JoinLeft {
			foundLeft = true
		}
	})
	if !foundLeft {
		t.Fatalf("no left join in plan:\n%s", plan.Explain(node))
	}
}

func TestQ4SemiJoinShape(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(8))
	q, _ := tpch.GenQuery(4, rng)
	node := planQuery(t, db, q.SQL)
	found := false
	node.Walk(func(n *plan.Node) {
		if n.Op == plan.OpHashSemiJoin {
			found = true
		}
	})
	if !found {
		t.Fatalf("EXISTS should decorrelate to a semi join:\n%s", plan.Explain(node))
	}
	if node.HasSubqueryStructures() {
		t.Fatal("Q4 must not need sub-plan structures")
	}
}

func TestQ22AntiJoinAndInitPlan(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(9))
	q, _ := tpch.GenQuery(22, rng)
	node, rows := runQuery(t, db, q.SQL)
	foundAnti := false
	node.Walk(func(n *plan.Node) {
		if n.Op == plan.OpHashAntiJoin {
			foundAnti = true
		}
	})
	if !foundAnti {
		t.Fatalf("NOT EXISTS should decorrelate to an anti join:\n%s", plan.Explain(node))
	}
	if len(node.InitPlans) == 0 {
		t.Fatal("Q22's scalar avg subquery must be an init-plan")
	}
	_ = rows
}

func TestQ2CorrelatedSubPlan(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(10))
	q, _ := tpch.GenQuery(2, rng)
	node, _ := runQuery(t, db, q.SQL)
	if len(node.SubPlans) == 0 {
		t.Fatalf("Q2's correlated min subquery must be a SubPlan:\n%s", plan.Explain(node))
	}
}

func TestExplainContainsEstimates(t *testing.T) {
	db := tpchDB(t)
	node := planQuery(t, db, "select count(*) from orders, lineitem where o_orderkey = l_orderkey")
	out := plan.Explain(node)
	for _, want := range []string{"cost=", "rows=", "Seq Scan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestSelectivityHelpers(t *testing.T) {
	if likeSelectivity("%BRASS", false) <= 0 || likeSelectivity("%BRASS", false) >= 1 {
		t.Fatal("like sel out of range")
	}
	if likeSelectivity("abc", false) != defaultEqSel {
		t.Fatal("no-wildcard pattern behaves as equality")
	}
	neg := likeSelectivity("%x%", true)
	pos := likeSelectivity("%x%", false)
	if math.Abs(neg+pos-1) > 1e-12 {
		t.Fatal("negated like must complement")
	}
	if clampSel(-1) <= 0 || clampSel(2) != 1 || clampSel(math.NaN()) != defaultSel {
		t.Fatal("clamp")
	}
}

func TestSplitConjuncts(t *testing.T) {
	stmt, err := sql.Parse("select 1 from nation where a = 1 and b = 2 and (c = 3 or d = 4)")
	if err != nil {
		t.Fatal(err)
	}
	conjs := splitConjuncts(stmt.Where)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts %d", len(conjs))
	}
	if joinConjuncts(nil) != nil {
		t.Fatal("empty join")
	}
}

func TestConstValue(t *testing.T) {
	stmt, err := sql.Parse("select 1 from nation where x < date '1994-01-01' + interval '1' year and y < 3 * 4")
	if err != nil {
		t.Fatal(err)
	}
	conjs := splitConjuncts(stmt.Where)
	be := conjs[0].(*sql.BinaryExpr)
	v, ok := constValue(be.R)
	if !ok || v.String() != "1995-01-01" {
		t.Fatalf("date const %v %v", v, ok)
	}
	be2 := conjs[1].(*sql.BinaryExpr)
	v2, ok := constValue(be2.R)
	if !ok || v2.I() != 12 {
		t.Fatalf("arith const %v", v2)
	}
}

func TestPlanErrors(t *testing.T) {
	db := tpchDB(t)
	bad := []string{
		"select x from nosuchtable",
		"select nosuchcol from nation",
		"select n_name from nation order by n_comment",             // not in select list
		"select n_name, count(*) from nation group by n_regionkey", // non-grouped col
	}
	for _, q := range bad {
		if _, err := PlanSQL(db, q); err == nil {
			t.Errorf("PlanSQL(%q) should fail", q)
		}
	}
}

func TestDeterministicPlanning(t *testing.T) {
	db := tpchDB(t)
	q := "select count(*) from orders, lineitem, customer where o_orderkey = l_orderkey and c_custkey = o_custkey"
	a := planQuery(t, db, q)
	b := planQuery(t, db, q)
	if a.Signature() != b.Signature() {
		t.Fatal("planning must be deterministic")
	}
}
