package opt

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/tpch"
)

// templateDraws is draws SQL texts of every template but the extra ones,
// the same texts on every call.
func templateDraws(t testing.TB, draws int) []string {
	t.Helper()
	var out []string
	for _, tmpl := range tpch.Templates {
		rng := rand.New(rand.NewSource(int64(tmpl)))
		for d := 0; d < draws; d++ {
			gq, err := tpch.GenQuery(tmpl, rng)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, gq.SQL)
		}
	}
	return out
}

// TestScanColumnsStayShared plans every template, and select lists that
// rename a scan's every column, and requires each base-table scan to carry
// its table's TableStats.ScanCols — the one array every plan shares — and
// every such array to read as it did before planning. A planner that
// renamed or rewrote a scan's columns in place would change every other
// plan over the table, concurrent ones included.
func TestScanColumnsStayShared(t *testing.T) {
	db := tpchDB(t)
	before := map[string][]plan.Column{}
	for name, st := range db.Stats {
		before[name] = slices.Clone(st.ScanCols)
	}
	scans := 0
	for _, q := range templateDraws(t, 3) {
		root, err := PlanSQL(db, q)
		if err != nil {
			t.Fatal(err)
		}
		root.Walk(func(n *plan.Node) {
			if n.Op != plan.OpSeqScan && n.Op != plan.OpIndexScan {
				return
			}
			scans++
			if shared := db.Stats[n.Table].ScanCols; len(n.Cols) == 0 || &n.Cols[0] != &shared[0] || len(n.Cols) != len(shared) {
				t.Fatalf("%s does not share its table's scan columns", n)
			}
		})
	}
	if scans == 0 {
		t.Fatal("no scans planned")
	}
	// A select list naming every column of a scan in order renames the
	// scan's output, which must copy the shared array first.
	for _, q := range []string{
		"select r_regionkey as k, r_name as n, r_comment as c from region",
		"select n_nationkey as k, n_name as nm, n_regionkey as r, n_comment as c from nation where n_regionkey = 1",
	} {
		if _, err := PlanSQL(db, q); err != nil {
			t.Fatal(err)
		}
	}
	for name, st := range db.Stats {
		if cap(st.ScanCols) != len(st.ScanCols) {
			t.Errorf("%s: scan columns have spare capacity, so an append to them writes the shared array", name)
		}
		for i, c := range st.ScanCols {
			if c != before[name][i] {
				t.Errorf("%s column %d: %+v after planning, %+v before", name, i, c, before[name][i])
			}
		}
	}
}

// TestConcurrentColdPlans plans every template on several goroutines at
// once against one database, whose scan columns they all share, and
// requires each plan to digest as the serial one does. Under the race
// detector it is what catches a write to a shared array.
func TestConcurrentColdPlans(t *testing.T) {
	db := tpchDB(t)
	queries := templateDraws(t, 2)
	digests := func(db *storage.Database) ([]string, error) {
		out := make([]string, len(queries))
		for i, q := range queries {
			root, err := PlanSQL(db, q)
			if err != nil {
				return nil, err
			}
			out[i] = planDigest(root)
		}
		return out, nil
	}
	want, err := digests(db)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = digests(db)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Errorf("worker %d: plan %d digests %s, serially %s\nsql: %s", w, i, got[w][i], want[i], queries[i])
			}
		}
	}
}

// TestSameTextAgreesWithString checks plan.SameText against the String
// comparison it replaces in the planner, over every expression of every
// template plan: each pair of operands is the same text to one exactly
// when it is to the other.
func TestSameTextAgreesWithString(t *testing.T) {
	db := tpchDB(t)
	var scalars []plan.Scalar
	var aggs []plan.AggSpec
	add := func(s plan.Scalar) {
		plan.Inspect(s, func(e plan.Scalar) bool {
			scalars = append(scalars, e)
			return true
		})
	}
	for _, q := range templateDraws(t, 1) {
		root, err := PlanSQL(db, q)
		if err != nil {
			t.Fatal(err)
		}
		root.Walk(func(n *plan.Node) {
			add(n.Filter)
			j := n.JoinOf()
			add(j.Filter)
			for _, list := range [][]plan.Scalar{j.HashKeysL, j.HashKeysR, n.GroupBy(), n.Projs(), n.LookupExprs(), n.LookupConsts()} {
				for _, s := range list {
					add(s)
				}
			}
			for _, a := range n.Aggs() {
				aggs = append(aggs, a)
				add(a.Arg)
			}
		})
	}
	texts := make([]string, len(scalars))
	for i, s := range scalars {
		texts[i] = s.String()
	}
	same := 0
	for i := range scalars {
		for j := range scalars {
			want := texts[i] == texts[j]
			if got := plan.SameText(scalars[i], scalars[j]); got != want {
				t.Fatalf("SameText(%s, %s) = %v, String equality %v", texts[i], texts[j], got, want)
			}
			if want && i != j {
				same++
			}
		}
	}
	for _, a := range aggs {
		for _, b := range aggs {
			if got, want := a.SameText(b), a.String() == b.String(); got != want {
				t.Fatalf("AggSpec SameText(%s, %s) = %v, String equality %v", a, b, got, want)
			}
		}
	}
	t.Logf("%d scalars, %d equal-text pairs, %d aggregates", len(scalars), same, len(aggs))
	if same == 0 || len(aggs) == 0 {
		t.Fatalf("%d scalars with %d equal-text pairs and %d aggregates: nothing compared alike", len(scalars), same, len(aggs))
	}
}
