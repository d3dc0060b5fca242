package plancache

import (
	"fmt"
	"sort"

	"qpp/internal/exec"
	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
	"qpp/internal/vclock"
)

// Outcome classifies how Plan served a request.
type Outcome uint8

const (
	// OutcomeMiss means the query was planned cold (unknown signature, or
	// the hit path failed and fell back to the full optimizer).
	OutcomeMiss Outcome = iota
	// OutcomeHit means a cached candidate was rebound and served, chosen
	// by the learned selector (or trivially, when only one candidate
	// exists).
	OutcomeHit
	// OutcomeHitFallback means a cached candidate was served but the
	// selector declined (low confidence or not trained) and the
	// cost-based fallback chose among candidates.
	OutcomeHitFallback
)

// A template keeps at most candidateCap plan skeletons, and the selector's
// choice is trusted only when its best predicted latency beats the
// second-best by a relative gap of at least selectorGap.
const (
	candidateCap = 4
	selectorGap  = 0.15
)

// Config tunes cache construction.
type Config struct {
	// LabelSeed seeds the virtual clocks used to label training
	// executions; candidate latencies for one draw share a seed so labels
	// are comparable.
	LabelSeed int64
	// MaxLabelDraws caps how many training draws are executed per
	// template when labeling the selector (default 12).
	MaxLabelDraws int
	// DisableExactPlans turns off the exact-match memo layer, forcing
	// every hit through the parametric rebind path. Used by tests that
	// execute (and therefore mutate) the plans Plan returns.
	DisableExactPlans bool
}

func (c *Config) fill() {
	if c.MaxLabelDraws <= 0 {
		c.MaxLabelDraws = 12
	}
}

// Candidate is one parameter-free plan skeleton: a recorded join-order
// merge trace plus bookkeeping from the training workload.
type Candidate struct {
	// Trace replays through the ordinary planner to rebuild the full
	// physical plan for any binding.
	Trace *opt.JoinTrace
	// Freq counts how many training draws cold-planned to this skeleton.
	Freq int
}

// Template is the cached state for one canonical signature.
type Template struct {
	// Signature is the canonical template key.
	Signature string
	// Candidates holds the plan skeletons in descending training
	// frequency (ties broken by first appearance). Candidate 0 — the most
	// common optimizer choice — is the default and supplies the
	// selector's feature vector.
	Candidates []Candidate

	stmt     *sql.SelectStmt
	selector *Selector

	// SelectorWins / SelectorDraws summarize training-set validation:
	// draws where the selector's pick was at least as fast as the
	// cost-based pick, over draws evaluated. The selector is only kept
	// when it did not lose to the fallback in aggregate.
	SelectorWins  int
	SelectorDraws int
}

// HasSelector reports whether a trained, validation-passing selector is
// active for this template.
func (t *Template) HasSelector() bool { return t.selector != nil }

// Cache is an immutable parametric plan cache. Build constructs it off
// the hot path; Plan is safe for concurrent use because serving only
// reads template state and every hit works on a private AST clone. Both
// cache layers — the exact-match memo and the template map — are frozen
// at Build, so the read path takes no locks.
type Cache struct {
	db        *storage.Database
	templates map[string]*Template
	sigs      []string
	// exact memoizes the fully-bound plan for every training-draw query
	// text: the classic shared-plan-cache layer in front of the
	// parametric one. Entries are what planHit produced for that binding
	// at Build time, so an exact hit returns the same plan the rebind
	// path would, minus all of its work.
	exact map[string]exactEntry
}

// exactEntry is one memoized (query text -> bound plan) mapping.
type exactEntry struct {
	node    *plan.Node
	outcome Outcome
}

// ExactLen returns the number of memoized exact-match entries.
func (c *Cache) ExactLen() int { return len(c.exact) }

// Len returns the number of cached templates.
func (c *Cache) Len() int { return len(c.templates) }

// Signatures returns the cached signatures in first-seen order.
func (c *Cache) Signatures() []string {
	return append([]string(nil), c.sigs...)
}

// Template returns the cached template for a signature, or nil.
func (c *Cache) Template(sig string) *Template { return c.templates[sig] }

// Build cold-plans the training queries, groups them by canonical
// signature, dedups the recorded join-order traces into per-template
// candidate sets, and trains a latency selector for every template with
// more than one candidate. Queries that fail to lex, parse, or plan are
// skipped: they would fail identically at serving time, so caching them
// buys nothing.
func Build(db *storage.Database, queries []string, cfg Config) (*Cache, error) {
	if db == nil {
		return nil, fmt.Errorf("plancache: nil database")
	}
	cfg.fill()
	groups := make(map[string][]string, 32)
	order := make([]string, 0, 32)
	for _, q := range queries {
		sig, _, err := Canonicalize(q)
		if err != nil {
			continue
		}
		if _, ok := groups[sig]; !ok {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], q)
	}
	c := &Cache{
		db:        db,
		templates: make(map[string]*Template, len(order)),
		sigs:      make([]string, 0, len(order)),
	}
	for _, sig := range order {
		t, err := buildTemplate(db, sig, groups[sig], cfg)
		if err != nil {
			continue
		}
		c.templates[sig] = t
		c.sigs = append(c.sigs, sig)
	}
	if !cfg.DisableExactPlans {
		// Pre-bind every training draw through the parametric path and
		// memoize the result, so repeats of known query texts at serving
		// time are pure map lookups. Built here, never mutated after.
		c.exact = make(map[string]exactEntry, len(queries))
		for _, q := range queries {
			if _, ok := c.exact[q]; ok {
				continue
			}
			sig, lits, err := Canonicalize(q)
			if err != nil {
				continue
			}
			t, ok := c.templates[sig]
			if !ok {
				continue
			}
			if node, out, err := c.planHit(t, lits); err == nil {
				c.exact[q] = exactEntry{node: node, outcome: out}
			}
		}
	}
	return c, nil
}

// candAcc accumulates one deduped candidate during Build.
type candAcc struct {
	trace *opt.JoinTrace
	freq  int
	seen  int
}

func buildTemplate(db *storage.Database, sig string, qs []string, cfg Config) (*Template, error) {
	var cands []*candAcc
	byKey := make(map[string]int, 4)
	stmts := make([]*sql.SelectStmt, 0, len(qs))
	keyBuf := make([]byte, 0, 128)
	var tmplStmt *sql.SelectStmt
	for _, q := range qs {
		stmt, err := sql.Parse(q)
		if err != nil {
			return nil, err
		}
		_, trace, err := opt.PlanTraced(db, stmt)
		if err != nil {
			return nil, err
		}
		if tmplStmt == nil {
			tmplStmt = stmt
		}
		keyBuf = trace.AppendKey(keyBuf[:0])
		k := string(keyBuf)
		i, ok := byKey[k]
		if !ok {
			i = len(cands)
			byKey[k] = i
			cands = append(cands, &candAcc{trace: trace, seen: i})
		}
		cands[i].freq++
		stmts = append(stmts, stmt)
	}
	if tmplStmt == nil {
		return nil, fmt.Errorf("plancache: no plannable draws for signature")
	}
	// Fig. 8 frequency-based ordering: the optimizer's most common choice
	// becomes the default candidate; ties keep first-seen order.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].freq > cands[j].freq })
	if len(cands) > candidateCap {
		cands = cands[:candidateCap]
	}
	t := &Template{
		Signature:  sig,
		Candidates: make([]Candidate, len(cands)),
		stmt:       tmplStmt,
	}
	for i, ca := range cands {
		t.Candidates[i] = Candidate{Trace: ca.trace, Freq: ca.freq}
	}
	if len(cands) > 1 {
		trainTemplateSelector(db, t, stmts, cfg)
	}
	return t, nil
}

// trainTemplateSelector labels each training draw by replaying every
// candidate and executing it on a virtual clock (same seed across the
// candidates of one draw, so latencies are comparable), fits one latency
// model per candidate, and keeps the selector only if its training-set
// choices are collectively no slower than the cost-based fallback's.
// Any replay or execution failure silently leaves the selector off —
// the cost-based fallback is always available.
func trainTemplateSelector(db *storage.Database, t *Template, stmts []*sql.SelectStmt, cfg Config) {
	draws := stmts
	if len(draws) > cfg.MaxLabelDraws {
		draws = draws[:cfg.MaxLabelDraws]
	}
	prof := vclock.DefaultProfile()
	nCand := len(t.Candidates)
	feats := make([][]float64, 0, len(draws))
	lats := make([][]float64, 0, len(draws))
	costs := make([][]float64, 0, len(draws))
	for d, stmt := range draws {
		lat := make([]float64, nCand)
		cost := make([]float64, nCand)
		var drawFeats []float64
		for ci := range t.Candidates {
			p, err := opt.PlanReplay(db, stmt, t.Candidates[ci].Trace)
			if err != nil {
				return
			}
			if ci == 0 {
				drawFeats = Features(p)
			}
			cost[ci] = p.Est.TotalCost
			res, err := exec.Run(db, p, vclock.NewClock(prof, cfg.LabelSeed+int64(d)), exec.Options{})
			if err != nil {
				return
			}
			lat[ci] = res.Elapsed
		}
		feats = append(feats, drawFeats)
		lats = append(lats, lat)
		costs = append(costs, cost)
	}
	sel := trainSelector(feats, lats, nCand)
	if sel == nil {
		return
	}
	// Training-set validation: total actual latency of the selector's
	// confident choices (fallback choice where unconfident) versus the
	// fallback alone. Enable only if the selector does not lose.
	var selTotal, costTotal float64
	wins := 0
	for d := range feats {
		costIdx := argminCost(costs[d])
		selIdx := costIdx
		if idx, gap := sel.Choose(feats[d]); gap >= selectorGap {
			selIdx = idx
		}
		selTotal += lats[d][selIdx]
		costTotal += lats[d][costIdx]
		if lats[d][selIdx] <= lats[d][costIdx] {
			wins++
		}
	}
	if selTotal > costTotal {
		return
	}
	t.selector = sel
	t.SelectorWins = wins
	t.SelectorDraws = len(feats)
}

func argminCost(costs []float64) int {
	best := 0
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[best] {
			best = i
		}
	}
	return best
}

// Plan serves one query. A query text seen during training returns its
// memoized fully-bound plan — a pure map lookup. Otherwise, on a
// signature hit, Plan clones the template AST, stamps in the request's
// literals, and replays the needed candidates' recorded join orders
// through the ordinary planner — skipping parse and the exponential DP
// search — letting the selector (or the cost-based fallback) pick. Any
// hit-path failure falls back to cold planning, so Plan never does
// worse than the optimizer alone.
//
// Exact-match hits return a plan shared by every caller asking for the
// same query text; the prediction path only reads plans, so sharing is
// safe there. Callers that execute plans (execution mutates runtime
// node state) must build the cache with DisableExactPlans, or use
// bindings outside the training set.
func (c *Cache) Plan(query string) (*plan.Node, Outcome, error) {
	if e, ok := c.exact[query]; ok {
		return e.node, e.outcome, nil
	}
	sig, lits, err := Canonicalize(query)
	if err == nil {
		if t, ok := c.templates[sig]; ok {
			if node, out, hitErr := c.planHit(t, lits); hitErr == nil {
				return node, out, nil
			}
		}
	}
	node, err := opt.PlanSQL(c.db, query)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	return node, OutcomeMiss, nil
}

func (c *Cache) planHit(t *Template, lits []Lit) (*plan.Node, Outcome, error) {
	stmt := sql.CloneSelect(t.stmt)
	if err := applyLiterals(stmt, lits); err != nil {
		return nil, OutcomeMiss, err
	}
	if len(t.Candidates) == 1 {
		node, err := opt.PlanReplay(c.db, stmt, t.Candidates[0].Trace)
		if err != nil {
			return nil, OutcomeMiss, err
		}
		return node, OutcomeHit, nil
	}
	// The planner never mutates its input AST, so one clone serves every
	// sequential candidate replay. Candidate 0 always replays first: it
	// supplies the selector's feature vector.
	p0, err := opt.PlanReplay(c.db, stmt, t.Candidates[0].Trace)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	if t.selector != nil {
		idx, gap := t.selector.Choose(Features(p0))
		if gap >= selectorGap {
			// Confident selector: only the chosen candidate needs a
			// replay, not the whole set.
			if idx == 0 {
				return p0, OutcomeHit, nil
			}
			p, err := opt.PlanReplay(c.db, stmt, t.Candidates[idx].Trace)
			if err != nil {
				return nil, OutcomeMiss, err
			}
			return p, OutcomeHit, nil
		}
	}
	// Cost-based fallback needs every candidate's bound cost.
	best, bestCost := p0, p0.Est.TotalCost
	for i := 1; i < len(t.Candidates); i++ {
		p, err := opt.PlanReplay(c.db, stmt, t.Candidates[i].Trace)
		if err != nil {
			return nil, OutcomeMiss, err
		}
		if p.Est.TotalCost < bestCost {
			best, bestCost = p, p.Est.TotalCost
		}
	}
	return best, OutcomeHitFallback, nil
}
