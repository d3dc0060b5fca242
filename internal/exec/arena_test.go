package exec

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// poisonRow is a row of recycled values, wider than any template's rows.
var poisonRow = func() plan.Row {
	r := make(plan.Row, 64)
	poison(r)
	return r
}()

// poisonReleased overwrites whatever the arena hands to onArenaRelease with
// garbage: recycled values and rows, and indexes, hashes and counts no
// query could have written.
func poisonReleased(region any) {
	switch r := region.(type) {
	case []types.Value:
		poison(r)
	case []plan.Row:
		for i := range r {
			r[i] = poisonRow
		}
	case []int32:
		for i := range r {
			r[i] = 0x5a5a5a5a
		}
	case []uint64:
		for i := range r {
			r[i] = 0x5a5a5a5a5a5a5a5a
		}
	case [][2]int64:
		for i := range r {
			r[i] = [2]int64{-0x5a5a5a5a, 0x5a5a5a5a}
		}
	case []aggGroup:
		for i := range r {
			r[i] = aggGroup{keys: poisonRow}
		}
	case []aggState:
		for i := range r {
			r[i] = aggState{spec: plan.AggSpec{Func: plan.AggSum}, count: -1, sum: math.NaN(), sumIsI: true, sumI: 0x5a5a5a5a, minMax: recycled, seenAny: true}
		}
	default:
		panic(fmt.Sprintf("poisonReleased: the arena released a %T", region))
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

// pooledArenas takes every arena the pool will hand to this goroutine —
// until the pool has to make a new one — and returns them with a function
// that puts them back.
func pooledArenas() ([]*queryArena, func()) {
	var taken []*queryArena
	for {
		a := arenaPool.Get().(*queryArena)
		taken = append(taken, a)
		if len(a.chunks) == 0 {
			break
		}
	}
	return taken, func() {
		for _, a := range taken {
			arenaPool.Put(a)
		}
	}
}

// poisonPooledArenas overwrites every chunk and every free scratch array of
// every arena the pool will hand to this goroutine.
func poisonPooledArenas() {
	arenas, putBack := pooledArenas()
	defer putBack()
	for _, a := range arenas {
		for _, c := range a.chunks {
			poison(c)
		}
		poisonFree(&a.rows)
		poisonFree(&a.ids)
		poisonFree(&a.ikeys)
		poisonFree(&a.hashes)
		poisonFree(&a.vals)
		poisonFree(&a.groups)
		poisonFree(&a.states)
	}
}

// poisonFree overwrites every array on one of an arena's free lists.
func poisonFree[T any](s *scratch[T]) {
	for _, f := range s.free {
		for _, x := range f {
			poisonReleased(x)
		}
	}
}

// TestResultRowsSurviveArenaReuse: the rows a Run returns must not alias
// the arena. Every template's result is kept while the pooled arenas are
// overwritten and Q9 — the template with the largest arena — runs on them;
// the kept rows must not change, and a second Run of the same plan on the
// recycled arena must return the same rows and the same virtual time.
// Removing the copy at the Run boundary fails it on every template; handing
// out a recycled slot array without clearing it fails it too.
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

// TestSubPlanReleaseIsInvisible: a sub-plan's rows and scratch arrays are
// dead once its scalar result has been copied out. With everything release
// frees poisoned at the moment of release — row storage and the hash
// tables, join chains, aggregate groups and states and sort buffers the
// sub-plan's operators grew — each template, compiled and interpreted so
// both sub-plan call paths run, must produce the rows and the virtual time
// of the un-poisoned run. Releasing before the result is read fails it on
// the templates with init-plans (T11, T15, T22) and correlated sub-plans
// (T2, T17, T21; T20's 12-second sub-plan is left to the differential
// suite). Releasing only the arrays, after the sub-plan's Open and before
// its drain, fails it on T2, T11 and T17.
func TestSubPlanReleaseIsInvisible(t *testing.T) {
	db := diffDB(t)
	defer func() { onArenaRelease = nil }()
	for _, tmpl := range append([]int{17, 21}, tpch.Templates...) {
		node := planTemplate(t, db, tmpl)
		onArenaRelease = nil
		want := runTemplate(t, db, node, tmpl, Options{})
		regions, arrays := 0, 0
		onArenaRelease = func(region any) {
			if _, isRows := region.([]types.Value); isRows {
				regions++
			} else {
				arrays++
			}
			poisonReleased(region)
		}
		for _, interpret := range []bool{false, true} {
			got := runTemplate(t, db, node, tmpl, Options{Interpret: interpret})
			what := fmt.Sprintf("t%d (interpret=%v) with released memory poisoned", tmpl, interpret)
			requireSameRows(t, what, got.Rows, want.Rows)
			if math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) {
				t.Fatalf("%s: %.12f virtual seconds, want %.12f", what, got.Elapsed, want.Elapsed)
			}
		}
		subPlans := len(node.InitPlans()) + len(node.SubPlans())
		t.Logf("t%d: %d init-/sub-plans released %d row regions and %d arrays", tmpl, subPlans, regions, arrays)
		if (regions > 0) != (subPlans > 0) || (arrays > 0) != (subPlans > 0) {
			t.Fatalf("t%d: %d init-/sub-plans but %d row regions and %d arrays released", tmpl, subPlans, regions, arrays)
		}
	}
}

// TestQueriesNeverWriteTableRows: a table's rows live in one pointer-free
// block (types.PackRows), so a write into it is the one way to hide a live
// pointer from the collector. Every template, compiled and interpreted,
// must leave every table as it found it: row i still the cap == len view at
// &vals[i*width] of the value array the table started with, values
// Identical to a deep copy taken before, and every string still on the
// bytes it started on. T20, whose correlated sub-plan is 12 of the test's
// 12.5 seconds (ten times that under the race detector), runs only in the
// full suite without -race.
func TestQueriesNeverWriteTableRows(t *testing.T) {
	db := diffDB(t)
	type cell struct {
		v     types.Value
		bytes *byte
	}
	before := map[string][]cell{}
	vals := map[string]unsafe.Pointer{}
	for _, name := range db.Schema.TableNames() {
		tab := db.Tables[name]
		vals[name] = unsafe.Pointer(&tab.Rows.Row(0)[0])
		for i := range tab.Rows.Len() {
			for _, v := range tab.Rows.Row(i) {
				c := cell{v: v}
				if s := v.S(); s != "" {
					c = cell{types.Str(strings.Clone(s)), unsafe.StringData(s)}
				}
				before[name] = append(before[name], c)
			}
		}
	}
	for _, tmpl := range allTemplates() {
		if tmpl == 20 && (testing.Short() || raceEnabled) {
			continue
		}
		node := planTemplate(t, db, tmpl)
		for _, interpret := range []bool{false, true} {
			runTemplate(t, db, node, tmpl, Options{Interpret: interpret})
		}
	}
	size := unsafe.Sizeof(types.Value{})
	for _, name := range db.Schema.TableNames() {
		tab, cells := db.Tables[name], before[name]
		w := tab.Rows.Width()
		for i := range tab.Rows.Len() {
			r := tab.Rows.Row(i)
			if at := unsafe.Add(vals[name], uintptr(i*w)*size); len(r) != w || cap(r) != w || unsafe.Pointer(unsafe.SliceData(r)) != at {
				t.Fatalf("%s row %d: len %d cap %d at %p, want len = cap = %d at %p", name, i, len(r), cap(r), unsafe.SliceData(r), w, at)
			}
			for j, v := range r {
				c := cells[0]
				cells = cells[1:]
				if !types.Identical(v, c.v) || c.bytes != nil && unsafe.StringData(v.S()) != c.bytes {
					t.Fatalf("%s row %d col %d: %s %q after the queries, was %s %q", name, i, j, v.Kind(), v.Key(), c.v.Kind(), c.v.Key())
				}
			}
		}
	}
}

// TestSteadyStateRunAllocation pins what a repeat Run of one planned node
// hands to the collector once the arena is warm. Rows and every array an
// operator grows come from the pooled arena; what is left is the clock's
// page index (vclock's buffer simulation, the largest share), the
// parameter slots, the copied-out result, the per-group hash tables of a
// DISTINCT aggregate, and the iterator tree of every sub-plan call.
// Measured at 16-byte Values with the side arrays on the arena: T9 114 kB,
// T18 77 kB (side arrays on the heap: 2.99 MB and 4.35 MB; before the
// arena: 36.4 MB and 10.8 MB); every template's limit is its measurement
// plus 10 %. A fresh arena per Run, instead of a pooled one, fails every
// template.
func TestSteadyStateRunAllocation(t *testing.T) {
	db := diffDB(t)
	limits := map[int]uint64{
		1: 82_200, 2: 26_500, 3: 84_900, 4: 82_800, 5: 86_100, 6: 81_000,
		7: 86_400, 8: 87_700, 9: 125_800, 10: 89_000, 11: 26_500, 12: 82_300,
		13: 30_800, 14: 82_100, 15: 83_800, 18: 84_600, 19: 81_900, 22: 29_400,
	}
	for _, tmpl := range tpch.Templates {
		limit, ok := limits[tmpl]
		if !ok {
			t.Fatalf("t%d has no limit", tmpl)
		}
		node := planTemplate(t, db, tmpl)
		runTemplate(t, db, node, tmpl, Options{}) // compiles the closures, fills the arena
		best := uint64(math.MaxUint64)
		for attempt := 0; attempt < 3; attempt++ { // a collection in between empties the pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runTemplate(t, db, node, tmpl, Options{})
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("t%d: %d bytes per steady-state run", tmpl, best)
		if best > limit && !raceEnabled {
			t.Errorf("t%d: a steady-state run allocates %d bytes, limit %d", tmpl, best, limit)
		}
	}
}

// keptScratch returns the bytes of the arrays on one free list, and
// whether any element of a list that holds pointers is not zero.
func keptScratch[T any](s *scratch[T]) (bytes int, dirty bool) {
	size := int(reflect.TypeFor[T]().Size())
	for _, f := range s.free {
		for _, x := range f {
			bytes += cap(x) * size
			for i := 0; s.holdsPointers() && !dirty && i < len(x); i++ {
				dirty = !reflect.ValueOf(&x[i]).Elem().IsZero()
			}
		}
	}
	return bytes, dirty
}

// TestRecycledArenaIsBounded: after a hash join builds 2²⁰ rows — the
// chains, slots and row array of a join far past the benchmark's scale —
// the arena that goes back to the pool keeps at most scratchKeep bytes of
// scratch arrays, and the kept arrays that hold pointers are all zero, so
// an idle arena pins none of the rows its query referenced.
func TestRecycledArenaIsBounded(t *testing.T) {
	const distinct, repeat = 1 << 10, 1 << 10
	keys := make([][]types.Value, distinct)
	for i := range keys {
		keys[i] = []types.Value{types.Int(int64(i))}
	}
	build := make([][]types.Value, distinct*repeat) // 2²⁰ rows over 2¹⁰ keys
	for i := range build {
		build[i] = keys[i%distinct]
	}
	db := keyDB(t, map[string][][]types.Value{"l": keys[:1], "r": build})
	join := keyJoin("l", "r", 1, 1, 1)
	pooledArenas() // dropped: other tests leave poison on the free lists
	if res := run(t, db, join); len(res.Rows) != repeat {
		t.Fatalf("join returned %d rows, want %d", len(res.Rows), repeat)
	}

	arenas, putBack := pooledArenas()
	defer putBack()
	found := false
	for _, a := range arenas {
		total, dirty := 0, false
		add := func(bytes int, d bool) { total, dirty = total+bytes, dirty || d }
		add(keptScratch(&a.rows))
		add(keptScratch(&a.ids))
		add(keptScratch(&a.ikeys))
		add(keptScratch(&a.hashes))
		add(keptScratch(&a.vals))
		add(keptScratch(&a.groups))
		add(keptScratch(&a.states))
		t.Logf("a pooled arena keeps %d bytes of scratch arrays", total)
		found = found || total > scratchKeep/2
		if total > scratchKeep {
			t.Errorf("a recycled arena keeps %d bytes of scratch arrays, budget %d", total, scratchKeep)
		}
		if dirty {
			t.Errorf("a recycled arena keeps pointers in its free scratch arrays")
		}
	}
	// Under -race sync.Pool drops a quarter of what it is given.
	if !found && !raceEnabled {
		t.Errorf("no pooled arena kept the join's arrays")
	}
}
