// Package plancache implements a Kepler-style parametric plan cache for
// the serving hot path: queries are keyed by a canonical template
// signature (the token stream with literals stripped), each template
// holds a small set of candidate plan skeletons (recorded join-order
// traces from internal/opt), and a hit serves the candidate the
// optimizer's cost model prices cheapest for the request's binding. A
// cache hit skips DP join ordering, not parsing: the request is parsed
// like any other, and the recorded merge traces are replayed over that
// statement through the ordinary planner — so a hit's plan is produced
// by exactly the code that cold planning runs, with bit-identical costs.
// The cache keeps no statement of its own, and never executes a query.
//
// The package is part of the deterministic core and the hot-path
// allocation discipline: no wall clock, no global rand, no map-order
// dependent outputs, and no formatting allocations on the Plan path.
package plancache

import (
	"qpp/internal/sql"
)

// LitKind distinguishes the two literal token classes the signature
// abstracts over. Number and string literals canonicalize to different
// placeholders, so a template that takes a number in some position never
// matches a query with a string there.
type LitKind uint8

const (
	// LitNumber is an integer or decimal literal token.
	LitNumber LitKind = iota
	// LitString is a single-quoted string literal token (quotes stripped).
	LitString
)

// Lit is one literal token extracted during canonicalization, in source
// order.
type Lit struct {
	Kind LitKind
	Text string
}

// Canonicalize lexes the query and returns its canonical template
// signature plus the literal tokens in source order. The signature is
// the token stream verbatim except that every number literal becomes the
// placeholder "#n" and every string literal becomes "#s" — keywords,
// identifiers, operators, and clause structure all remain part of the
// key, so two queries share a signature exactly when they differ only in
// literal values. One streaming scanner pass, no token slice, no parsing.
func Canonicalize(query string) (string, []Lit, error) {
	lits := make([]Lit, 0, 16)
	sig, err := scanSignature(query, &lits)
	if err != nil {
		return "", nil, err
	}
	return sig, lits, nil
}

// scanSignature is Canonicalize's scanner pass. It appends the literals
// to *lits, or keeps none when lits is nil: the cache keys on the
// signature alone.
func scanSignature(query string, lits *[]Lit) (string, error) {
	buf := make([]byte, 0, len(query)+8)
	sc := sql.NewScanner(query)
	for {
		tk, err := sc.Next()
		if err != nil {
			return "", err
		}
		switch tk.Kind {
		case sql.TokEOF:
			return string(buf), nil
		case sql.TokNumber:
			buf = append(buf, '#', 'n', ' ')
			if lits != nil {
				*lits = append(*lits, Lit{Kind: LitNumber, Text: tk.Text})
			}
		case sql.TokString:
			buf = append(buf, '#', 's', ' ')
			if lits != nil {
				*lits = append(*lits, Lit{Kind: LitString, Text: tk.Text})
			}
		default:
			buf = append(buf, tk.Text...)
			buf = append(buf, ' ')
		}
	}
}
