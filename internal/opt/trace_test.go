package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

// sameEst fails unless every cost/cardinality annotation matches to the
// bit (bit-identity is the plan-cache contract, not approximate equality).
func sameEst(t *testing.T, path string, a, b *plan.Node) {
	t.Helper()
	pairs := [...][2]float64{
		{a.Est.StartupCost, b.Est.StartupCost},
		{a.Est.TotalCost, b.Est.TotalCost},
		{a.Est.Rows, b.Est.Rows},
		{a.Est.Width, b.Est.Width},
		{a.Est.Pages, b.Est.Pages},
		{a.Est.Selectivity, b.Est.Selectivity},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s (%s): Est field %d differs: %v vs %v", path, a.Op, i, p[0], p[1])
		}
	}
}

// comparePlans asserts structural and bit-level cost identity between a
// freshly planned tree and a replayed one.
func comparePlans(t *testing.T, fresh, replayed *plan.Node) {
	t.Helper()
	if fe, re := plan.Explain(fresh), plan.Explain(replayed); fe != re {
		t.Fatalf("replayed plan differs from fresh plan:\n--- fresh ---\n%s\n--- replayed ---\n%s", fe, re)
	}
	var walk func(path string, a, b *plan.Node)
	walk = func(path string, a, b *plan.Node) {
		sameEst(t, path, a, b)
		if len(a.Children) != len(b.Children) {
			t.Fatalf("%s: child count %d vs %d", path, len(a.Children), len(b.Children))
		}
		for i := range a.Children {
			walk(path+"/"+string(a.Op), a.Children[i], b.Children[i])
		}
	}
	walk("root", fresh, replayed)
	if len(fresh.InitPlans) != len(replayed.InitPlans) || len(fresh.SubPlans) != len(replayed.SubPlans) {
		t.Fatalf("init/sub plan counts differ")
	}
	for i := range fresh.InitPlans {
		walk("initplan", fresh.InitPlans[i], replayed.InitPlans[i])
	}
	for i := range fresh.SubPlans {
		walk("subplan", fresh.SubPlans[i], replayed.SubPlans[i])
	}
}

// TestTraceReplayBitIdentical replays every draw's own recorded trace
// against a fresh parse of the same query and requires the result to be
// bit-identical to fresh planning: the record/replay machinery itself
// introduces zero drift. It also replays each draw under the trace
// recorded from a different draw of the same template, which must either
// plan successfully (the common case: join order is parameter-stable) or
// never panic — a changed optimal order (e.g. Q8, where MCV-based
// equality selectivity moves with the literal) is legitimate and is
// adjudicated by the plancache differential suite, not here.
func TestTraceReplayBitIdentical(t *testing.T) {
	db := tpchDB(t)
	for _, tmpl := range tpch.Templates {
		gq0, err := tpch.GenQuery(tmpl, rand.New(rand.NewSource(100)))
		if err != nil {
			t.Fatal(err)
		}
		stmt0, err := sql.Parse(gq0.SQL)
		if err != nil {
			t.Fatal(err)
		}
		_, trace0, err := PlanTraced(db, stmt0)
		if err != nil {
			t.Fatal(err)
		}
		for draw := int64(0); draw < 3; draw++ {
			rng := rand.New(rand.NewSource(100 + draw))
			gq, err := tpch.GenQuery(tmpl, rng)
			if err != nil {
				t.Fatal(err)
			}
			q := gq.SQL
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("template %d draw %d: parse: %v", tmpl, draw, err)
			}
			fresh, trace, err := PlanTraced(db, stmt)
			if err != nil {
				t.Fatalf("template %d draw %d: trace: %v", tmpl, draw, err)
			}
			stmt2, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := PlanReplay(db, stmt2, trace)
			if err != nil {
				t.Fatalf("template %d draw %d: replay: %v", tmpl, draw, err)
			}
			comparePlans(t, fresh, replayed)
			// Structural alignment across draws: same number of blocks and
			// merge steps, even when the chosen orders differ.
			if trace.Steps() != trace0.Steps() || len(trace.Blocks) != len(trace0.Blocks) {
				t.Fatalf("template %d draw %d: trace shape drifted across draws: %d/%d steps, %d/%d blocks",
					tmpl, draw, trace.Steps(), trace0.Steps(), len(trace.Blocks), len(trace0.Blocks))
			}
			// Cross-draw replay must plan cleanly (candidate reuse path).
			stmt3, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := PlanReplay(db, stmt3, trace0); err != nil {
				t.Fatalf("template %d draw %d: cross-draw replay: %v", tmpl, draw, err)
			}
		}
	}
}

// TestTraceReplayExecutionIdentical runs a replayed plan and its fresh
// twin under the same virtual clock and requires identical rows and
// bit-identical virtual latency.
func TestTraceReplayExecutionIdentical(t *testing.T) {
	db := tpchDB(t)
	for _, tmpl := range []int{3, 5, 10} {
		gq, err := tpch.GenQuery(tmpl, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		q := gq.SQL
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		fresh, trace, err := PlanTraced(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		stmt2, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := PlanReplay(db, stmt2, trace)
		if err != nil {
			t.Fatal(err)
		}
		prof := vclock.DefaultProfile()
		rf, err := exec.Run(db, fresh, vclock.NewClock(prof, 42), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := exec.Run(db, replayed, vclock.NewClock(prof, 42), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rf.Elapsed) != math.Float64bits(rr.Elapsed) {
			t.Fatalf("template %d: virtual latency diverged: %v vs %v", tmpl, rf.Elapsed, rr.Elapsed)
		}
		if len(rf.Rows) != len(rr.Rows) {
			t.Fatalf("template %d: row counts diverged: %d vs %d", tmpl, len(rf.Rows), len(rr.Rows))
		}
		for i := range rf.Rows {
			for j := range rf.Rows[i] {
				if !types.Identical(rf.Rows[i][j], rr.Rows[i][j]) {
					t.Fatalf("template %d: row %d col %d diverged", tmpl, i, j)
				}
			}
		}
	}
}

// TestTraceMismatchErrors pins the failure mode: replaying a trace from a
// structurally different statement must error, never panic or misplan.
func TestTraceMismatchErrors(t *testing.T) {
	db := tpchDB(t)
	gq5, err := tpch.GenQuery(5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	gq3, err := tpch.GenQuery(3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	stmt5, err := sql.Parse(gq5.SQL)
	if err != nil {
		t.Fatal(err)
	}
	_, trace5, err := PlanTraced(db, stmt5)
	if err != nil {
		t.Fatal(err)
	}
	stmt3, err := sql.Parse(gq3.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanReplay(db, stmt3, trace5); err == nil {
		t.Fatal("replaying a Q5 trace against Q3 must fail")
	}
	if _, err := PlanReplay(db, stmt5, &JoinTrace{}); err == nil {
		t.Fatal("replaying an empty trace against Q5 must fail")
	}
}

// BenchmarkPlanSQL and BenchmarkPlanReplay time, per template, a cold
// parse+plan against a parse+replay of the query's own join trace: the
// pair the plan cache's rebind layer trades on (DESIGN.md §15 keeps the
// table).
func BenchmarkPlanSQL(b *testing.B) {
	db := tpchDB(b)
	for _, tmpl := range tpch.Templates {
		gq, err := tpch.GenQuery(tmpl, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		q := gq.SQL
		b.Run(fmt.Sprintf("q%d", tmpl), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanSQL(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlanReplay(b *testing.B) {
	db := tpchDB(b)
	for _, tmpl := range tpch.Templates {
		gq, err := tpch.GenQuery(tmpl, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		q := gq.SQL
		stmt, err := sql.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		_, trace, err := PlanTraced(db, stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("q%d", tmpl), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stmt2, err := sql.Parse(q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := PlanReplay(db, stmt2, trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
