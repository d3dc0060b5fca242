package plancache

import (
	"fmt"
	"sort"

	"qpp/internal/arena"
	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
)

// Outcome classifies how Plan served a request.
type Outcome uint8

const (
	// OutcomeMiss means the query was planned cold (unknown signature, or
	// a candidate replay failed and fell back to the full optimizer).
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

// template is the cached state for one canonical signature: the
// recorded join-order traces in descending training frequency (ties
// broken by first appearance). Each replays through the ordinary planner
// to rebuild the full physical plan for any binding.
type template struct {
	candidates []*opt.JoinTrace
}

// Cache is an immutable parametric plan cache. Build constructs it off
// the hot path; Plan is safe for concurrent use because serving only
// reads template state and every hit plans its own parse of the request.
// Both cache layers — the exact-match memo and the template map — are
// frozen at Build, so the read path takes no locks.
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
// A query that fails to lex, parse, or plan is skipped on its own: it
// would fail identically at serving time, so caching it buys nothing.
func Build(db *storage.Database, queries []string, _ Config) (*Cache, error) {
	if db == nil {
		return nil, fmt.Errorf("plancache: nil database")
	}
	// draw is one training query that planned, with its parse: the memo
	// below replays the same statement rather than parsing it again.
	type draw struct {
		query, sig string
		stmt       *sql.SelectStmt
	}
	draws := make([]draw, 0, len(queries))
	cands := make(map[string][]*candAcc, 32)
	keyBuf := make([]byte, 0, 128)
	for _, q := range queries {
		sig, err := scanSignature(q, nil)
		if err != nil {
			continue
		}
		stmt, err := sql.Parse(q)
		if err != nil {
			continue
		}
		_, trace, err := opt.PlanTraced(db, stmt)
		if err != nil {
			continue
		}
		draws = append(draws, draw{query: q, sig: sig, stmt: stmt})
		keyBuf = trace.AppendKey(keyBuf[:0])
		cands[sig] = addCandidate(cands[sig], trace, keyBuf)
	}
	c := &Cache{
		db:        db,
		templates: make(map[string]*template, len(cands)),
		exact:     make(map[string]exactEntry, len(draws)),
	}
	for sig, cs := range cands {
		// Fig. 8 frequency-based ordering: the optimizer's most common
		// choice becomes the first candidate; ties keep first-seen order.
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].freq > cs[j].freq })
		if len(cs) > candidateCap {
			cs = cs[:candidateCap]
		}
		t := &template{candidates: make([]*opt.JoinTrace, len(cs))}
		for i, ca := range cs {
			t.candidates[i] = ca.trace
		}
		c.templates[sig] = t
	}
	// Pre-bind every training draw through the parametric path and
	// memoize the result, so repeats of known query texts at serving time
	// are pure map lookups. Built here, never mutated after.
	for _, d := range draws {
		if _, ok := c.exact[d.query]; ok {
			continue
		}
		if node, out, err := c.planHit(nil, c.templates[d.sig], d.stmt); err == nil {
			c.exact[d.query] = exactEntry{node: node, outcome: out}
		}
	}
	return c, nil
}

// candAcc accumulates one deduped candidate during Build.
type candAcc struct {
	key   string
	trace *opt.JoinTrace
	freq  int
}

// addCandidate counts one draw's trace, keyed by key, into cs.
func addCandidate(cs []*candAcc, trace *opt.JoinTrace, key []byte) []*candAcc {
	for _, ca := range cs {
		if ca.key == string(key) {
			ca.freq++
			return cs
		}
	}
	return append(cs, &candAcc{key: string(key), trace: trace, freq: 1})
}

// Plan serves one query. A query text seen during training returns its
// memoized fully-bound plan — a pure map lookup, shared by every caller
// asking for that text; the prediction path only reads plans, so sharing
// is safe there. Any other query goes through rebind.
func (c *Cache) Plan(query string) (*plan.Node, Outcome, error) {
	return c.PlanIn(nil, query)
}

// PlanIn is Plan with the parse and every plan it builds carved from a
// (the heap when a is nil): a rebound or cold plan is valid until a is
// released. A memo hit returns the memo's own plan, which is on the heap
// and never a's.
func (c *Cache) PlanIn(a *arena.Arena, query string) (*plan.Node, Outcome, error) {
	if e, ok := c.exact[query]; ok {
		return e.node, e.outcome, nil
	}
	return c.rebind(a, query)
}

// rebind serves a query without the memo, so every plan it returns is
// the caller's own. On a signature hit it parses the request and replays
// the template's recorded join orders through the ordinary planner,
// skipping the DP join search. A request that does not parse returns the
// parser's error; a replay failure falls back to cold planning, so a hit
// never does worse than the optimizer alone.
func (c *Cache) rebind(a *arena.Arena, query string) (*plan.Node, Outcome, error) {
	sig, err := scanSignature(query, nil)
	t, ok := c.templates[sig]
	if err != nil || !ok {
		node, err := opt.PlanSQLIn(a, c.db, query)
		return node, OutcomeMiss, err
	}
	stmt, err := sql.ParseIn(a, query)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	if node, out, err := c.planHit(a, t, stmt); err == nil {
		return node, out, nil
	}
	node, err := opt.PlanIn(a, c.db, stmt)
	return node, OutcomeMiss, err
}

// planHit replays every candidate of t over stmt and returns the plan
// with the least Est.TotalCost, the first on ties. The planner never
// mutates its input AST, so one statement serves every replay.
func (c *Cache) planHit(a *arena.Arena, t *template, stmt *sql.SelectStmt) (*plan.Node, Outcome, error) {
	var best *plan.Node
	for _, trace := range t.candidates {
		p, err := opt.PlanReplayIn(a, c.db, stmt, trace)
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
