package plancache

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/opt"
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

func genSQL(t testing.TB, tmpl int, seed int64) string {
	t.Helper()
	gq, err := tpch.GenQuery(tmpl, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("template %d: %v", tmpl, err)
	}
	return gq.SQL
}

// TestCanonicalizeStability: draws of one template share a signature;
// signatures of different templates are pairwise distinct.
func TestCanonicalizeStability(t *testing.T) {
	sigs := make(map[string]int)
	for _, tmpl := range tpch.Templates {
		sig0, lits0, err := Canonicalize(genSQL(t, tmpl, 100))
		if err != nil {
			t.Fatalf("template %d: %v", tmpl, err)
		}
		if prev, dup := sigs[sig0]; dup {
			t.Fatalf("templates %d and %d collide on signature", prev, tmpl)
		}
		sigs[sig0] = tmpl
		for seed := int64(101); seed < 106; seed++ {
			sig, lits, err := Canonicalize(genSQL(t, tmpl, seed))
			if err != nil {
				t.Fatalf("template %d seed %d: %v", tmpl, seed, err)
			}
			if sig != sig0 {
				t.Fatalf("template %d: signature moved with literals:\n%s\nvs\n%s", tmpl, sig0, sig)
			}
			if len(lits) != len(lits0) {
				t.Fatalf("template %d: literal slot count moved: %d vs %d", tmpl, len(lits), len(lits0))
			}
			for i := range lits {
				if lits[i].Kind != lits0[i].Kind {
					t.Fatalf("template %d: literal slot %d kind moved", tmpl, i)
				}
			}
		}
	}
}

// TestCanonicalizeDiscriminates: literal kind and query structure are
// part of the key.
func TestCanonicalizeDiscriminates(t *testing.T) {
	sigNum, _, err := Canonicalize("select n_name from nation where n_nationkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	sigNum2, _, err := Canonicalize("select n_name from nation where n_nationkey = 24")
	if err != nil {
		t.Fatal(err)
	}
	if sigNum != sigNum2 {
		t.Fatal("same template, different number literal: signatures must match")
	}
	sigStr, _, err := Canonicalize("select n_name from nation where n_nationkey = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if sigNum == sigStr {
		t.Fatal("number vs string literal must change the signature")
	}
	sigOther, _, err := Canonicalize("select n_name from nation where n_regionkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if sigNum == sigOther {
		t.Fatal("different column must change the signature")
	}
}

// TestApplyLiteralsMatchesFreshParse pins the rebind machinery: cloning
// the template AST and stamping another draw's literals must produce a
// statement that renders identically to a fresh parse of that draw.
func TestApplyLiteralsMatchesFreshParse(t *testing.T) {
	for _, tmpl := range tpch.Templates {
		base := genSQL(t, tmpl, 500)
		tmplStmt, err := sql.Parse(base)
		if err != nil {
			t.Fatalf("template %d: %v", tmpl, err)
		}
		sig0, _, err := Canonicalize(base)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(501); seed < 504; seed++ {
			q := genSQL(t, tmpl, seed)
			sig, lits, err := Canonicalize(q)
			if err != nil {
				t.Fatal(err)
			}
			if sig != sig0 {
				t.Fatalf("template %d: signature drift", tmpl)
			}
			clone := sql.CloneSelect(tmplStmt)
			if err := applyLiterals(clone, lits); err != nil {
				t.Fatalf("template %d seed %d: %v", tmpl, seed, err)
			}
			fresh, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := clone.SQL(), fresh.SQL(); got != want {
				t.Fatalf("template %d seed %d: rebound AST diverges from fresh parse:\n got %s\nwant %s", tmpl, seed, got, want)
			}
		}
	}
}

// TestApplyLiteralsErrors pins error-not-panic semantics for slot
// mismatches.
func TestApplyLiteralsErrors(t *testing.T) {
	stmt, err := sql.Parse("select n_name from nation where n_nationkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := applyLiterals(sql.CloneSelect(stmt), nil); err == nil {
		t.Fatal("missing literal slot must error")
	}
	if err := applyLiterals(sql.CloneSelect(stmt), []Lit{{Kind: LitString, Text: "x"}}); err == nil {
		t.Fatal("kind mismatch must error")
	}
	if err := applyLiterals(sql.CloneSelect(stmt), []Lit{{Kind: LitNumber, Text: "1"}, {Kind: LitNumber, Text: "2"}}); err == nil {
		t.Fatal("surplus literal slot must error")
	}
}

// TestCachedPlanBitIdentical builds a one-draw cache per template and
// requires the hit path (clone + literal stamp + trace replay) to
// reproduce the cold plan bit-for-bit, including execution behaviour
// under the same virtual clock.
func TestCachedPlanBitIdentical(t *testing.T) {
	db := tpchDB(t)
	for _, tmpl := range tpch.Templates {
		q := genSQL(t, tmpl, 42)
		// Exact memo off: this test executes the plans Plan returns, and
		// its subject is the rebind path.
		cache, err := Build(db, []string{q}, Config{DisableExactPlans: true})
		if err != nil {
			t.Fatal(err)
		}
		if cache.Len() != 1 {
			t.Fatalf("template %d: cache size %d", tmpl, cache.Len())
		}
		cached, out, err := cache.Plan(q)
		if err != nil {
			t.Fatalf("template %d: %v", tmpl, err)
		}
		if out != OutcomeHit {
			t.Fatalf("template %d: outcome %d, want hit", tmpl, out)
		}
		fresh, err := opt.PlanSQL(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if fe, ce := plan.Explain(fresh), plan.Explain(cached); fe != ce {
			t.Fatalf("template %d: cached plan differs from fresh:\n--- fresh ---\n%s\n--- cached ---\n%s", tmpl, fe, ce)
		}
		prof := vclock.DefaultProfile()
		rf, err := exec.Run(db, fresh, vclock.NewClock(prof, 9), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := exec.Run(db, cached, vclock.NewClock(prof, 9), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rf.Elapsed) != math.Float64bits(rc.Elapsed) {
			t.Fatalf("template %d: virtual latency diverged: %v vs %v", tmpl, rf.Elapsed, rc.Elapsed)
		}
		compareRows(t, tmpl, rf.Rows, rc.Rows)
	}
}

func compareRows(t *testing.T, tmpl int, a, b []plan.Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("template %d: row counts diverged: %d vs %d", tmpl, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("template %d: row %d width diverged", tmpl, i)
		}
		for j := range a[i] {
			if !types.Identical(a[i][j], b[i][j]) {
				t.Fatalf("template %d: row %d col %d diverged: %v vs %v", tmpl, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestCacheDifferential is the cross-draw correctness suite: a cache
// trained on one set of draws serves unseen draws of every template, and
// the cache-chosen plan must return exactly the rows the cold optimizer
// plan returns. When the cache happens to choose the same join order,
// virtual latency must also be bit-identical.
//
// It also carries the plan-quality gate: executed under the same
// virtual-clock seed, the cache-chosen plan is no slower than the cold
// plan on at least 90% of draws — over all templates, and separately over
// the templates that hold more than one candidate skeleton, which get 12
// draws instead of 3 because they are the only ones where the learned
// selector chooses anything (16 of the 18 hold one candidate and tie by
// construction, so the all-template rate cannot fall below 89% whatever
// the selector does at 3 draws each). Measured: 71 of 72 over all
// templates, 23 of 24 on the two multi-candidate ones (T2, T8); with the
// selector replaced by "take the costliest candidate" 58 of 72 and 10 of
// 24 (the benchmark tool this gate came from measured 105 of 108 with 6
// draws for every template).
func TestCacheDifferential(t *testing.T) {
	db := tpchDB(t)
	const trainDraws = 5
	var train []string
	for _, tmpl := range tpch.Templates {
		for d := int64(0); d < trainDraws; d++ {
			train = append(train, genSQL(t, tmpl, 1000+d))
		}
	}
	cache, err := Build(db, train, Config{LabelSeed: 77, MaxLabelDraws: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(tpch.Templates) {
		t.Fatalf("cache covers %d of %d templates", cache.Len(), len(tpch.Templates))
	}
	prof := vclock.DefaultProfile()
	type tally struct {
		name        string
		wins, draws int
	}
	all, multi := &tally{name: "all templates"}, &tally{name: "multi-candidate templates"}
	for _, tmpl := range tpch.Templates {
		sig, _, err := Canonicalize(genSQL(t, tmpl, 2000))
		if err != nil {
			t.Fatal(err)
		}
		groups, draws := []*tally{all}, int64(3)
		if len(cache.Template(sig).Candidates) > 1 {
			groups, draws = []*tally{all, multi}, 12
		}
		for d := int64(0); d < draws; d++ {
			q := genSQL(t, tmpl, 2000+d)
			cached, out, err := cache.Plan(q)
			if err != nil {
				t.Fatalf("template %d draw %d: %v", tmpl, d, err)
			}
			if out == OutcomeMiss {
				t.Fatalf("template %d draw %d: unexpected miss", tmpl, d)
			}
			fresh, err := opt.PlanSQL(db, q)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := exec.Run(db, fresh, vclock.NewClock(prof, 300+d), exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rc, err := exec.Run(db, cached, vclock.NewClock(prof, 300+d), exec.Options{})
			if err != nil {
				t.Fatalf("template %d draw %d: cached plan failed to execute: %v", tmpl, d, err)
			}
			compareRows(t, tmpl, rf.Rows, rc.Rows)
			if plan.Explain(fresh) == plan.Explain(cached) &&
				math.Float64bits(rf.Elapsed) != math.Float64bits(rc.Elapsed) {
				t.Fatalf("template %d draw %d: identical plans, diverged latency", tmpl, d)
			}
			for _, g := range groups {
				g.draws++
				if rc.Elapsed <= rf.Elapsed*(1+1e-9) {
					g.wins++
				}
			}
		}
	}
	if multi.draws == 0 {
		t.Fatal("no template holds more than one candidate: the selector is not exercised")
	}
	for _, g := range []*tally{all, multi} {
		t.Logf("%s: cache-chosen plan no slower than the cold plan on %d of %d draws", g.name, g.wins, g.draws)
		if 10*g.wins < 9*g.draws {
			t.Errorf("%s: want >= 90%% of draws", g.name)
		}
	}
}

// TestExactMatchMemo pins the L1 layer: a training-draw query text is
// served from the memo — the identical (shared) node on every call, with
// the rebind path's outcome — while unseen bindings of the same template
// still go through the parametric path and produce fresh nodes.
func TestExactMatchMemo(t *testing.T) {
	db := tpchDB(t)
	q := genSQL(t, 3, 10)
	cache, err := Build(db, []string{q}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cache.ExactLen() != 1 {
		t.Fatalf("ExactLen = %d, want 1", cache.ExactLen())
	}
	n1, out, err := cache.Plan(q)
	if err != nil || out != OutcomeHit {
		t.Fatalf("exact hit: node err %v outcome %d", err, out)
	}
	n2, _, err := cache.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatal("exact hits must return the memoized node, not a rebuild")
	}
	// Same template, unseen binding: parametric path, fresh nodes.
	q2 := genSQL(t, 3, 11)
	m1, out, err := cache.Plan(q2)
	if err != nil || out != OutcomeHit {
		t.Fatalf("parametric hit: err %v outcome %d", err, out)
	}
	m2, _, err := cache.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("parametric hits must rebind fresh nodes")
	}
	// The memoized plan is bit-identical to a fresh cold plan of the
	// same text.
	cold, err := opt.PlanSQL(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Explain(n1) != plan.Explain(cold) {
		t.Fatal("memoized plan diverges from cold plan")
	}
	// DisableExactPlans forces every hit through the rebind path.
	nox, err := Build(db, []string{q}, Config{DisableExactPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	if nox.ExactLen() != 0 {
		t.Fatalf("ExactLen = %d with memo disabled", nox.ExactLen())
	}
}

// TestCacheMissAndFallback pins the outcome taxonomy. The exact-match
// memo is disabled so every call exercises the parametric path (the
// corrupt-trace case below replans a training-draw text).
func TestCacheMissAndFallback(t *testing.T) {
	db := tpchDB(t)
	q := genSQL(t, 3, 10)
	cache, err := Build(db, []string{q}, Config{DisableExactPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown signature: cold plan, miss.
	node, out, err := cache.Plan("select count(*) from lineitem")
	if err != nil || node == nil {
		t.Fatalf("miss path: %v", err)
	}
	if out != OutcomeMiss {
		t.Fatalf("outcome %d, want miss", out)
	}
	// Unparsable query: error surfaces.
	if _, _, err := cache.Plan("select from from"); err == nil {
		t.Fatal("garbage SQL must error")
	}
	// Corrupted candidate trace: the hit path fails internally and Plan
	// silently falls back to cold planning.
	tpl := cache.Template(cache.Signatures()[0])
	tpl.Candidates[0].Trace.Blocks = [][]opt.JoinStep{{{L: 1, R: 2}}}
	node, out, err = cache.Plan(q)
	if err != nil || node == nil {
		t.Fatalf("fallback path: %v", err)
	}
	if out != OutcomeMiss {
		t.Fatalf("corrupt trace: outcome %d, want miss fallback", out)
	}
}

// FuzzCanonicalSignature asserts the tentpole invariant: perturbing
// literal values never changes a query's canonical signature. The fuzzer
// mutates every literal token and rebuilds the query from its token
// stream.
func FuzzCanonicalSignature(f *testing.F) {
	for _, tmpl := range tpch.Templates {
		gq, err := tpch.GenQuery(tmpl, rand.New(rand.NewSource(1)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(gq.SQL, int64(7))
	}
	f.Fuzz(func(t *testing.T, query string, seed int64) {
		sig0, lits0, err := Canonicalize(query)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		toks, err := sql.Lex(query)
		if err != nil {
			t.Skip()
		}
		// Rebuild the query with every literal replaced by a random value
		// of the same kind.
		var buf []byte
		for _, tk := range toks {
			switch tk.Kind {
			case sql.TokEOF:
			case sql.TokNumber:
				buf = appendRandNumber(buf, rng)
				buf = append(buf, ' ')
			case sql.TokString:
				buf = append(buf, '\'')
				buf = appendRandIdent(buf, rng)
				buf = append(buf, '\'', ' ')
			default:
				buf = append(buf, tk.Text...)
				buf = append(buf, ' ')
			}
		}
		sig, lits, err := Canonicalize(string(buf))
		if err != nil {
			t.Fatalf("perturbed query no longer lexes: %v\n%s", err, buf)
		}
		if sig != sig0 {
			t.Fatalf("literal perturbation changed the signature:\n%s\nvs\n%s", sig0, sig)
		}
		if len(lits) != len(lits0) {
			t.Fatalf("literal slot count changed: %d vs %d", len(lits0), len(lits))
		}
	})
}

func appendRandNumber(buf []byte, rng *rand.Rand) []byte {
	buf = strconv.AppendInt(buf, int64(rng.Intn(1000000)), 10)
	if rng.Intn(2) == 0 {
		buf = append(buf, '.', byte('0'+rng.Intn(10)))
	}
	return buf
}

func appendRandIdent(buf []byte, rng *rand.Rand) []byte {
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		buf = append(buf, byte('a'+rng.Intn(26)))
	}
	return buf
}
