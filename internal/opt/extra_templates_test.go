package opt

import (
	"math/rand"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/plan"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
)

// TestExtraTemplatesPlanAndRun plans and executes the four templates the
// paper excluded (Q16, Q17, Q20, Q21); they exercise COUNT(DISTINCT),
// correlated-aggregate sub-plans, nested IN subqueries, and the
// non-decorrelatable EXISTS fallback.
func TestExtraTemplatesPlanAndRun(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(17))
	prof := vclock.DefaultProfile()
	prof.NoiseSigma = 0
	for _, tmpl := range tpch.ExtraTemplates {
		q, err := tpch.GenQuery(tmpl, rng)
		if err != nil {
			t.Fatal(err)
		}
		node, err := PlanSQL(db, q.SQL)
		if err != nil {
			t.Fatalf("template %d: plan: %v\nsql: %s", tmpl, err, q.SQL)
		}
		res, err := exec.Run(db, node, vclock.NewClock(prof, int64(tmpl)), exec.Options{})
		if err != nil {
			t.Fatalf("template %d: run: %v\nplan:\n%s", tmpl, err, plan.Explain(node))
		}
		_ = res
	}
}

func TestQ17CorrelatedSubPlan(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(18))
	q, _ := tpch.GenQuery(17, rng)
	node := planQuery(t, db, q.SQL)
	if len(node.SubPlans) == 0 {
		t.Fatalf("Q17 must use a correlated sub-plan:\n%s", plan.Explain(node))
	}
}

func TestQ21ExistsFallback(t *testing.T) {
	db := tpchDB(t)
	rng := rand.New(rand.NewSource(19))
	q, _ := tpch.GenQuery(21, rng)
	node := planQuery(t, db, q.SQL)
	// The <> correlation defeats semi-join decorrelation; both EXISTS
	// clauses must become sub-plans.
	if len(node.SubPlans) < 2 {
		t.Fatalf("Q21 should fall back to EXISTS sub-plans, got %d:\n%s",
			len(node.SubPlans), plan.Explain(node))
	}
}

func TestCountDistinct(t *testing.T) {
	db := tpchDB(t)
	_, rows := runQuery(t, db, "select count(distinct n_regionkey), count(n_regionkey) from nation")
	if rows[0][0].I() != 5 {
		t.Fatalf("count distinct %v want 5", rows[0][0])
	}
	if rows[0][1].I() != 25 {
		t.Fatalf("plain count %v want 25", rows[0][1])
	}
}

func TestSumDistinct(t *testing.T) {
	db := tpchDB(t)
	_, rows := runQuery(t, db, "select sum(distinct n_regionkey) from nation")
	if rows[0][0].I() != 0+1+2+3+4 {
		t.Fatalf("sum distinct %v want 10", rows[0][0])
	}
}
