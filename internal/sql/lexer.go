// Package sql implements the SQL front-end: a lexer, an AST, and a
// recursive-descent parser for the analytical subset TPC-H needs — joins
// (including LEFT OUTER), grouping with HAVING, ordering and LIMIT,
// IN/EXISTS/scalar subqueries (correlated and uncorrelated), CASE, LIKE,
// BETWEEN, EXTRACT, SUBSTRING, and date/interval arithmetic.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind int

const (
	// TokEOF marks the end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or keyword (keywords are matched
	// case-insensitively by the parser).
	TokIdent
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokString is a single-quoted string literal (quotes stripped).
	TokString
	// TokOp is an operator or punctuation token.
	TokOp
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // identifiers are lowercased; operators verbatim
	Pos  int    // byte offset in the input
}

// Scanner produces tokens one at a time without materializing a token
// slice. Token texts reference the input string where possible
// (lowercase identifiers, numbers, escape-free string literals), so a
// full scan of an already-lowercase query performs no per-token
// allocations — the plan cache canonicalizes every incoming request
// with one Scanner pass on the serving hot path. Lex is a Scanner loop,
// so there is exactly one tokenization logic.
type Scanner struct {
	input string
	pos   int
}

// NewScanner returns a scanner positioned at the start of input.
func NewScanner(input string) Scanner { return Scanner{input: input} }

// Next returns the next token; after the input is exhausted it returns
// TokEOF forever.
func (s *Scanner) Next() (Token, error) {
	tk, fix, err := s.scan()
	if fix {
		tk.Text = fixText(tk)
	}
	return tk, err
}

// Validate scans the rest of the input and returns the first lexical
// error Next would report, building no token text.
func (s *Scanner) Validate() error {
	for {
		tk, _, err := s.scan()
		if err != nil || tk.Kind == TokEOF {
			return err
		}
	}
}

// fixText is the text of a token scan returned raw: an identifier with
// upper-case letters lowercased, a string literal with its doubled
// quotes unescaped.
func fixText(tk Token) string {
	if tk.Kind == TokIdent {
		return strings.ToLower(tk.Text)
	}
	return strings.ReplaceAll(tk.Text, "''", "'")
}

// scan is the tokenizer: it returns the next token with its text as a
// slice of the input, and fix set when that slice still needs fixText.
func (s *Scanner) scan() (tk Token, fix bool, err error) {
	input, n := s.input, len(s.input)
	i := s.pos
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			s.pos = i
			return Token{TokNumber, input[start:i], start}, false, nil
		case c == '\'':
			start := i
			i++
			bodyStart := i
			escaped := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						escaped = true
						i += 2
						continue
					}
					text := input[bodyStart:i]
					i++
					s.pos = i
					return Token{TokString, text, start}, escaped, nil
				}
				i++
			}
			return Token{}, false, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		case isIdentStart(c):
			start := i
			lower := true
			for i < n && isIdentPart(input[i]) {
				if input[i] >= 'A' && input[i] <= 'Z' {
					lower = false
				}
				i++
			}
			s.pos = i
			return Token{TokIdent, input[start:i], start}, !lower, nil
		default:
			start := i
			// Two-character operators first.
			if i+1 < n {
				two := input[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=", "||":
					s.pos = i + 2
					return Token{TokOp, two, start}, false, nil
				}
			}
			switch c {
			case '(', ')', ',', '.', '+', '-', '*', '/', '=', '<', '>', ';':
				s.pos = i + 1
				return Token{TokOp, input[start : start+1], start}, false, nil
			default:
				return Token{}, false, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	s.pos = n
	return Token{TokEOF, "", n}, false, nil
}

// Lex tokenizes a SQL string. SQL comments (-- to end of line) are skipped.
func Lex(input string) ([]Token, error) {
	// Presized for dense analytical SQL (one token per ~5 bytes keeps
	// the append growth to at most one realloc on typical queries).
	toks := make([]Token, 0, len(input)/5+8)
	sc := NewScanner(input)
	for {
		tk, err := sc.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tk)
		if tk.Kind == TokEOF {
			return toks, nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
