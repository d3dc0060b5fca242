package plancache

import (
	"fmt"
	"sort"

	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
)

// Outcome classifies how Plan served a request.
type Outcome uint8

const (
	// OutcomeMiss means the query was planned cold (unknown signature, or
	// the hit path failed and fell back to the full optimizer).
	OutcomeMiss Outcome = iota
	// OutcomeHit means the template's only candidate was rebound and
	// served.
	OutcomeHit
	// OutcomeHitFallback means the template holds several candidates:
	// each was rebound and the one with the least estimated total cost
	// was served.
	OutcomeHitFallback
)

// A template keeps at most candidateCap plan skeletons.
const candidateCap = 4

// Config tunes cache construction.
type Config struct {
	// LabelSeed is accepted for compatibility with existing callers;
	// nothing reads it.
	LabelSeed int64
}

// template is the cached state for one canonical signature.
type template struct {
	stmt *sql.SelectStmt
	// candidates holds the recorded join-order traces in descending
	// training frequency (ties broken by first appearance). Each replays
	// through the ordinary planner to rebuild the full physical plan for
	// any binding.
	candidates []*opt.JoinTrace
}

// Cache is an immutable parametric plan cache. Build constructs it off
// the hot path; Plan is safe for concurrent use because serving only
// reads template state and every hit works on a private AST clone. Both
// cache layers — the exact-match memo and the template map — are frozen
// at Build, so the read path takes no locks.
type Cache struct {
	db        *storage.Database
	templates map[string]*template
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

// Build cold-plans the training queries, groups them by canonical
// signature, dedups the recorded join-order traces into per-template
// candidate sets, and memoizes the bound plan of every training text.
// Queries that fail to lex, parse, or plan are skipped: they would fail
// identically at serving time, so caching them buys nothing.
func Build(db *storage.Database, queries []string, _ Config) (*Cache, error) {
	if db == nil {
		return nil, fmt.Errorf("plancache: nil database")
	}
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
	c := &Cache{db: db, templates: make(map[string]*template, len(order))}
	for _, sig := range order {
		if t, err := buildTemplate(db, groups[sig]); err == nil {
			c.templates[sig] = t
		}
	}
	// Pre-bind every training draw through the parametric path and
	// memoize the result, so repeats of known query texts at serving time
	// are pure map lookups. Built here, never mutated after.
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
	return c, nil
}

// candAcc accumulates one deduped candidate during Build.
type candAcc struct {
	trace *opt.JoinTrace
	freq  int
}

func buildTemplate(db *storage.Database, qs []string) (*template, error) {
	var cands []*candAcc
	byKey := make(map[string]int, 4)
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
			cands = append(cands, &candAcc{trace: trace})
		}
		cands[i].freq++
	}
	if tmplStmt == nil {
		return nil, fmt.Errorf("plancache: no plannable draws for signature")
	}
	// Fig. 8 frequency-based ordering: the optimizer's most common choice
	// becomes the first candidate; ties keep first-seen order.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].freq > cands[j].freq })
	if len(cands) > candidateCap {
		cands = cands[:candidateCap]
	}
	t := &template{stmt: tmplStmt, candidates: make([]*opt.JoinTrace, len(cands))}
	for i, ca := range cands {
		t.candidates[i] = ca.trace
	}
	return t, nil
}

// Plan serves one query. A query text seen during training returns its
// memoized fully-bound plan — a pure map lookup, shared by every caller
// asking for that text; the prediction path only reads plans, so sharing
// is safe there. Any other query goes through rebind.
func (c *Cache) Plan(query string) (*plan.Node, Outcome, error) {
	if e, ok := c.exact[query]; ok {
		return e.node, e.outcome, nil
	}
	return c.rebind(query)
}

// rebind serves a query without the memo, so every plan it returns is
// the caller's own. On a signature hit it clones the template AST,
// stamps in the request's literals, and replays the candidates' recorded
// join orders through the ordinary planner — skipping parse and the DP
// join search. Any hit-path failure falls back to cold planning, so it
// never does worse than the optimizer alone.
func (c *Cache) rebind(query string) (*plan.Node, Outcome, error) {
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

// planHit binds lits into t and returns the candidate replay with the
// least Est.TotalCost, the first on ties.
func (c *Cache) planHit(t *template, lits []Lit) (*plan.Node, Outcome, error) {
	stmt := sql.CloneSelect(t.stmt)
	if err := applyLiterals(stmt, lits); err != nil {
		return nil, OutcomeMiss, err
	}
	// The planner never mutates its input AST, so one clone serves every
	// candidate replay.
	var best *plan.Node
	for _, trace := range t.candidates {
		p, err := opt.PlanReplay(c.db, stmt, trace)
		if err != nil {
			return nil, OutcomeMiss, err
		}
		if best == nil || p.Est.TotalCost < best.Est.TotalCost {
			best = p
		}
	}
	if len(t.candidates) == 1 {
		return best, OutcomeHit, nil
	}
	return best, OutcomeHitFallback, nil
}
