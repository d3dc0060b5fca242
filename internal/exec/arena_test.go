package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

// recycled is what the arena tests write over memory the arena considers
// free; no query produces it.
var recycled = types.Str("\x00recycled")

func poison(region []types.Value) {
	for i := range region {
		region[i] = recycled
	}
}

func planTemplate(t *testing.T, db *storage.Database, tmpl int) *plan.Node {
	t.Helper()
	qs, err := tpch.GenWorkload([]int{tmpl}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	node, err := opt.PlanSQL(db, qs[0].SQL)
	if err != nil {
		t.Fatalf("t%d: plan: %v", tmpl, err)
	}
	return node
}

func runTemplate(t *testing.T, db *storage.Database, node *plan.Node, tmpl int, opts Options) *Result {
	t.Helper()
	res, err := Run(db, node, vclock.NewClock(vclock.DefaultProfile(), int64(500+tmpl)), opts)
	if err != nil {
		t.Fatalf("t%d: run: %v", tmpl, err)
	}
	return res
}

func cloneRows(rows []plan.Row) []plan.Row {
	out := make([]plan.Row, len(rows))
	for i, r := range rows {
		out[i] = append(plan.Row{}, r...)
	}
	return out
}

func requireSameRows(t *testing.T, what string, got, want []plan.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !types.Identical(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d col %d is %#v, want %#v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// poisonPooledArenas overwrites every chunk of every arena the pool will
// hand to this goroutine: arenas are taken until the pool has to make a
// new one, poisoned, and put back.
func poisonPooledArenas() {
	var taken []*rowArena
	for {
		a := arenaPool.Get().(*rowArena)
		taken = append(taken, a)
		if len(a.chunks) == 0 {
			break
		}
		for _, c := range a.chunks {
			poison(c)
		}
	}
	for _, a := range taken {
		arenaPool.Put(a)
	}
}

// TestResultRowsSurviveArenaReuse: the rows a Run returns must not alias
// the arena. Every template's result is kept while the pooled arenas are
// overwritten and Q9 — the template with the largest arena — runs on them;
// the kept rows must not change, and a second Run of the same plan on the
// recycled arena must return the same rows and the same virtual time.
// Removing the copy at the Run boundary fails it on every template.
func TestResultRowsSurviveArenaReuse(t *testing.T) {
	db := diffDB(t)
	q9 := planTemplate(t, db, 9)
	for _, tmpl := range tpch.Templates {
		node := planTemplate(t, db, tmpl)
		first := runTemplate(t, db, node, tmpl, Options{})
		want := cloneRows(first.Rows)

		poisonPooledArenas()
		runTemplate(t, db, q9, 9, Options{})
		requireSameRows(t, fmt.Sprintf("t%d: kept rows after the arena was reused", tmpl), first.Rows, want)

		again := runTemplate(t, db, node, tmpl, Options{})
		requireSameRows(t, fmt.Sprintf("t%d: second run", tmpl), again.Rows, want)
		if math.Float64bits(again.Elapsed) != math.Float64bits(first.Elapsed) {
			t.Fatalf("t%d: second run took %.12f virtual seconds, first %.12f", tmpl, again.Elapsed, first.Elapsed)
		}
	}
}

// TestSubPlanReleaseIsInvisible: a sub-plan's rows are dead once its scalar
// result has been copied out. With every released region poisoned at the
// moment of release, each template — compiled and interpreted, so both
// sub-plan call paths run — must produce the rows and the virtual time of
// the un-poisoned run. Releasing before the result is read fails it on the
// templates with init-plans (T11, T15, T22) and correlated sub-plans (T2,
// T17, T21; T20's 12-second sub-plan is left to the differential suite).
func TestSubPlanReleaseIsInvisible(t *testing.T) {
	db := diffDB(t)
	defer func() { onArenaRelease = nil }()
	for _, tmpl := range append([]int{17, 21}, tpch.Templates...) {
		node := planTemplate(t, db, tmpl)
		onArenaRelease = nil
		want := runTemplate(t, db, node, tmpl, Options{})
		released := 0
		onArenaRelease = func(region []types.Value) {
			released++
			poison(region)
		}
		for _, interpret := range []bool{false, true} {
			got := runTemplate(t, db, node, tmpl, Options{Interpret: interpret})
			what := fmt.Sprintf("t%d (interpret=%v) with released regions poisoned", tmpl, interpret)
			requireSameRows(t, what, got.Rows, want.Rows)
			if math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) {
				t.Fatalf("%s: %.12f virtual seconds, want %.12f", what, got.Elapsed, want.Elapsed)
			}
		}
		if subPlans := len(node.InitPlans) + len(node.SubPlans); (released > 0) != (subPlans > 0) {
			t.Fatalf("t%d: %d init-/sub-plans but %d regions released", tmpl, subPlans, released)
		}
	}
}

// TestSteadyStateRunAllocation pins what a repeat Run of one planned node
// hands to the collector once the arena is warm: the join, sort and hash
// table side arrays, the aggregate's state slabs, the clock's page cache
// and the copied-out result — no row storage. Measured at 24-byte Values:
// Q9 2.99 MB, Q18 4.35 MB (before the arena: 36.4 MB and 10.8 MB); the
// limits leave 10 %. A fresh arena per Run, instead of a pooled one, costs
// Q9 19 MB of chunks and Q18 3.7 MB, and fails both.
func TestSteadyStateRunAllocation(t *testing.T) {
	db := diffDB(t)
	for _, tc := range []struct {
		tmpl  int
		limit uint64
	}{{9, 3_290_000}, {18, 4_790_000}} {
		node := planTemplate(t, db, tc.tmpl)
		runTemplate(t, db, node, tc.tmpl, Options{}) // compiles the closures, grows the arena
		best := uint64(math.MaxUint64)
		for attempt := 0; attempt < 3; attempt++ { // a collection in between empties the pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runTemplate(t, db, node, tc.tmpl, Options{})
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("t%d: %d bytes per steady-state run", tc.tmpl, best)
		if best > tc.limit && !raceEnabled {
			t.Errorf("t%d: a steady-state run allocates %d bytes, limit %d", tc.tmpl, best, tc.limit)
		}
	}
}
