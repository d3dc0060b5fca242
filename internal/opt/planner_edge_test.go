package opt

import (
	"math/rand"
	"strings"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/plan"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

func TestCrossJoinFallback(t *testing.T) {
	db := tpchDB(t)
	// No join predicate between region and nation: forces the greedy
	// cross-product fallback.
	node, rows := runQuery(t, db, "select count(*) from region, nation where r_regionkey = 0")
	if rows[0][0].I() != 25 {
		t.Fatalf("cross join count %v want 25", rows[0][0].I())
	}
	found := false
	node.Walk(func(n *plan.Node) {
		if n.Op == plan.OpNestedLoop {
			found = true
		}
	})
	if !found {
		t.Fatalf("cross product should use a nested loop:\n%s", plan.Explain(node))
	}
}

func TestDistinct(t *testing.T) {
	db := tpchDB(t)
	_, rows := runQuery(t, db, "select distinct n_regionkey from nation")
	if len(rows) != 5 {
		t.Fatalf("distinct rows %d want 5", len(rows))
	}
}

func TestOrderByAlias(t *testing.T) {
	db := tpchDB(t)
	_, rows := runQuery(t, db, `
		select n_regionkey, count(*) as cnt from nation
		group by n_regionkey order by cnt desc, n_regionkey`)
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1].I() > rows[i-1][1].I() {
			t.Fatal("not sorted by aliased count")
		}
	}
}

func TestScalarSubqueryInWhere(t *testing.T) {
	db := tpchDB(t)
	node, rows := runQuery(t, db, `
		select count(*) from customer
		where c_acctbal > (select avg(c_acctbal) from customer)`)
	if len(node.InitPlans) != 1 {
		t.Fatalf("expected one init plan:\n%s", plan.Explain(node))
	}
	cust, _ := db.Table("customer")
	n := rows[0][0].I()
	if n <= 0 || n >= int64(len(cust.Rows)) {
		t.Fatalf("above-average customers %d out of range", n)
	}
}

func TestIndexScanOnPKEquality(t *testing.T) {
	db := tpchDB(t)
	node, rows := runQuery(t, db, "select o_totalprice from orders where o_orderkey = 100")
	if len(rows) != 1 {
		t.Fatalf("pk lookup rows %d", len(rows))
	}
	if node.Op != plan.OpIndexScan && node.Children == nil {
		t.Fatalf("expected index scan plan:\n%s", plan.Explain(node))
	}
	hasIdx := false
	node.Walk(func(n *plan.Node) {
		if n.Op == plan.OpIndexScan && len(n.LookupConsts) == 1 {
			hasIdx = true
		}
	})
	if !hasIdx {
		t.Fatalf("PK equality should plan an index scan:\n%s", plan.Explain(node))
	}
}

func TestQ2UsesParameterizedIndexScanInSubPlan(t *testing.T) {
	db := tpchDB(t)
	q := `select s_acctbal from part, supplier, partsupp
		where p_partkey = ps_partkey and s_suppkey = ps_suppkey and p_size = 15
		and ps_supplycost = (select min(ps_supplycost) from partsupp where p_partkey = ps_partkey)
		order by s_acctbal desc limit 10`
	node := planQuery(t, db, q)
	if len(node.SubPlans) != 1 {
		t.Fatalf("expected a correlated sub-plan:\n%s", plan.Explain(node))
	}
	hasParamIdx := false
	node.SubPlans[0].Walk(func(n *plan.Node) {
		if n.Op == plan.OpIndexScan && len(n.LookupConsts) == 1 {
			hasParamIdx = true
		}
	})
	if !hasParamIdx {
		t.Fatalf("sub-plan should index-scan partsupp on the correlation key:\n%s",
			plan.Explain(node.SubPlans[0]))
	}
}

func TestExplainShowsSubqueryScan(t *testing.T) {
	db := tpchDB(t)
	node := planQuery(t, db, `
		select avg(cnt) from (select o_custkey, count(*) as cnt from orders group by o_custkey) as t`)
	out := plan.Explain(node)
	if !strings.Contains(out, "Subquery Scan") {
		t.Fatalf("derived table should show as Subquery Scan:\n%s", out)
	}
}

func TestGroupAggChosenForManyGroups(t *testing.T) {
	db := tpchDB(t)
	// Grouping lineitem by orderkey yields ~#orders groups; with a small
	// work_mem the planner should pick Sort + GroupAggregate.
	node := planQuery(t, db, `
		select l_orderkey, sum(l_quantity) from lineitem group by l_orderkey`)
	ops := map[plan.OpType]int{}
	node.Walk(func(n *plan.Node) { ops[n.Op]++ })
	if ops[plan.OpGroupAgg] == 0 && ops[plan.OpHashAggregate] == 0 {
		t.Fatalf("no aggregate in plan:\n%s", plan.Explain(node))
	}
}

func TestIsNullPredicate(t *testing.T) {
	db := tpchDB(t)
	// Generated data has no NULLs, so IS NULL yields zero rows and IS NOT
	// NULL keeps all of them.
	_, rows := runQuery(t, db, "select count(*) from nation where n_comment is null")
	if rows[0][0].I() != 0 {
		t.Fatalf("is null count %v want 0", rows[0][0])
	}
	_, rows = runQuery(t, db, "select count(*) from nation where n_comment is not null")
	if rows[0][0].I() != 25 {
		t.Fatalf("is not null count %v want 25", rows[0][0])
	}
	// IS NULL catches LEFT JOIN null extension (anti-join idiom).
	_, rows = runQuery(t, db, `
		select count(*) from (
			select c_custkey, o_orderkey from customer
			left outer join orders on c_custkey = o_custkey
		) as t where o_orderkey is null`)
	cust, _ := db.Table("customer")
	orders, _ := db.Table("orders")
	hasOrder := map[int64]bool{}
	for _, o := range orders.Rows {
		hasOrder[o[1].I()] = true
	}
	var want int64
	for _, c := range cust.Rows {
		if !hasOrder[c[0].I()] {
			want++
		}
	}
	if rows[0][0].I() != want {
		t.Fatalf("left-join is-null count %v want %v", rows[0][0], want)
	}
}

// TestWrongKindOperandsAreBindErrors: SUBSTRING, EXTRACT(YEAR) and LIKE read
// one payload of their operand, and a value of another kind reads as the
// zero value there, so each of these statements used to plan and return
// wrong rows (substring from 0, year 1970, a match against ""). The binder
// refuses them; their well-typed twins and all 22 templates still plan.
func TestWrongKindOperandsAreBindErrors(t *testing.T) {
	db := tpchDB(t)
	for _, c := range []struct {
		sql  string
		want string // "" = must plan; otherwise a fragment of the opt: error
	}{
		{"select substring(c_phone from 'a' for 2) from customer", "constant integer bounds"},
		{"select substring(c_phone from 1.5 for 2) from customer", "constant integer bounds"},
		{"select extract(year from c_acctbal) from customer", "requires a date operand"},
		{"select c_name from customer where c_acctbal like '1%'", "requires a text operand"},
		{"select substring(c_custkey from 1 for 2) from customer", "requires a text operand"},
		{"select substring(c_phone from 1 for 2) from customer", ""},
		{"select extract(year from o_orderdate) from orders", ""},
		{"select c_name from customer where c_phone like '1%'", ""},
	} {
		_, err := PlanSQL(db, c.sql)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("PlanSQL(%q): %v", c.sql, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "opt: ") || !strings.Contains(err.Error(), c.want)):
			t.Errorf("PlanSQL(%q): err = %v, want an opt: error containing %q", c.sql, err, c.want)
		}
	}
	rng := rand.New(rand.NewSource(24))
	for _, tmpl := range append(append([]int(nil), tpch.Templates...), tpch.ExtraTemplates...) {
		q, err := tpch.GenQuery(tmpl, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanSQL(db, q.SQL); err != nil {
			t.Errorf("template %d no longer plans: %v", tmpl, err)
		}
	}
}

// TestAggregateUnderLikeAndIn: an aggregate under LIKE or IN makes its
// select list an aggregation, as one under BETWEEN always did; these four
// statements used to fail with "aggregate … used outside aggregation
// context". Each returns the row of its derived-table rewrite, compiled
// and interpreted.
func TestAggregateUnderLikeAndIn(t *testing.T) {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(query string, interpret bool) []plan.Row {
		t.Helper()
		node, err := PlanSQL(db, query)
		if err != nil {
			t.Fatalf("plan %q: %v", query, err)
		}
		res, err := exec.Run(db, node, vclock.NewClock(vclock.DefaultProfile(), 1), exec.Options{Interpret: interpret})
		if err != nil {
			t.Fatalf("run %q: %v", query, err)
		}
		return res.Rows
	}
	for _, c := range []struct{ query, rewrite string }{
		{"SELECT max(p_type) LIKE '%BRASS' FROM part",
			"SELECT m LIKE '%BRASS' FROM (SELECT max(p_type) AS m FROM part) AS t"},
		{"SELECT NOT (max(p_type) LIKE '%BRASS') FROM part",
			"SELECT NOT (m LIKE '%BRASS') FROM (SELECT max(p_type) AS m FROM part) AS t"},
		{"SELECT sum(p_size) IN (1, 2) FROM part",
			"SELECT s IN (1, 2) FROM (SELECT sum(p_size) AS s FROM part) AS t"},
		{"SELECT sum(p_size) NOT IN (1, 2) FROM part",
			"SELECT s NOT IN (1, 2) FROM (SELECT sum(p_size) AS s FROM part) AS t"},
	} {
		for _, interpret := range []bool{false, true} {
			got, want := run(c.query, interpret), run(c.rewrite, interpret)
			if len(got) != 1 || len(want) != 1 || len(got[0]) != 1 || len(want[0]) != 1 ||
				!types.Identical(got[0][0], want[0][0]) {
				t.Errorf("%q (interpret %v) = %v, want %v", c.query, interpret, got, want)
			}
		}
	}
}
