package sql

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"qpp/internal/tpch"
	"qpp/internal/types"
)

// The parser this package ran before Parse read tokens straight from a
// Scanner: sliceParser is the parent's parser verbatim — Lex the whole
// input into a token slice, then descend over it. It is the oracle
// TestParseMatchesTokenSliceParser compares Parse against.

// parseTokenSlice parses a single SELECT statement (optionally ';'-terminated).
func parseTokenSlice(input string) (*SelectStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &sliceParser{toks: toks, src: input}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.matchOp(";")
	if p.peek().Kind != TokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

type sliceParser struct {
	toks []Token
	pos  int
	src  string
}

func (p *sliceParser) peek() Token  { return p.toks[p.pos] }
func (p *sliceParser) peek2() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *sliceParser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *sliceParser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// matchKw consumes the given keyword if present.
func (p *sliceParser) matchKw(kw string) bool {
	if t := p.peek(); t.Kind == TokIdent && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *sliceParser) expectKw(kw string) error {
	if !p.matchKw(kw) {
		return p.errorf("expected %q, found %q", kw, p.peek().Text)
	}
	return nil
}

// matchOp consumes the given operator if present.
func (p *sliceParser) matchOp(op string) bool {
	if t := p.peek(); t.Kind == TokOp && t.Text == op {
		p.next()
		return true
	}
	return false
}

func (p *sliceParser) expectOp(op string) error {
	if !p.matchOp(op) {
		return p.errorf("expected %q, found %q", op, p.peek().Text)
	}
	return nil
}

func (p *sliceParser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.matchKw("distinct")

	// Projection list.
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{E: e}
		if p.matchKw("as") {
			t := p.next()
			if t.Kind != TokIdent {
				return nil, p.errorf("expected alias after AS")
			}
			item.Alias = t.Text
		} else if t := p.peek(); t.Kind == TokIdent && !reserved[t.Text] {
			item.Alias = p.next().Text
		}
		stmt.Items = append(stmt.Items, item)
		if !p.matchOp(",") {
			break
		}
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, *fi)
		if !p.matchOp(",") {
			break
		}
	}

	// Explicit JOIN clauses.
	for {
		var jt JoinType
		switch {
		case p.matchKw("left"):
			p.matchKw("outer")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		case p.peek().Kind == TokIdent && p.peek().Text == "inner" && p.peek2().Text == "join":
			p.next()
			p.next()
			jt = JoinInner
		case p.peek().Kind == TokIdent && p.peek().Text == "join":
			p.next()
			jt = JoinInner
		default:
			goto joinsDone
		}
		{
			fi, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, Join{Type: jt, Item: *fi, On: on})
		}
	}
joinsDone:

	if p.matchKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.matchKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.matchKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			o := OrderItem{E: e}
			if p.matchKw("desc") {
				o.Desc = true
			} else {
				p.matchKw("asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, o)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("limit") {
		t := p.next()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.Text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *sliceParser) parseFromItem() (*FromItem, error) {
	fi := &FromItem{}
	if p.matchOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		fi.Sub = sub
	} else {
		t := p.next()
		if t.Kind != TokIdent || reserved[t.Text] {
			return nil, p.errorf("expected table name, found %q", t.Text)
		}
		fi.Table = t.Text
	}
	if p.matchKw("as") {
		t := p.next()
		if t.Kind != TokIdent {
			return nil, p.errorf("expected alias after AS")
		}
		fi.Alias = t.Text
	} else if t := p.peek(); t.Kind == TokIdent && !reserved[t.Text] {
		fi.Alias = p.next().Text
	}
	if fi.Sub != nil && fi.Alias == "" {
		return nil, p.errorf("derived table requires an alias")
	}
	// Optional derived-column alias list.
	if fi.Alias != "" && p.peek().Kind == TokOp && p.peek().Text == "(" && p.peek2().Kind == TokIdent {
		// Distinguish "(col, …)" alias lists from nothing else: only derived
		// tables may carry one, and base tables never have a '(' after alias.
		p.next() // consume '('
		for {
			t := p.next()
			if t.Kind != TokIdent {
				return nil, p.errorf("expected column alias")
			}
			fi.ColAliases = append(fi.ColAliases, t.Text)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return fi, nil
}

// Expression parsing: precedence climbing.

func (p *sliceParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sliceParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *sliceParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// Don't consume the AND of "BETWEEN x AND y" — parseNot/predicate
		// has already absorbed it by the time we get here.
		if t := p.peek(); t.Kind == TokIdent && t.Text == "and" {
			p.next()
			r, err := p.parseNot()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpAnd, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *sliceParser) parseNot() (Expr, error) {
	if t := p.peek(); t.Kind == TokIdent && t.Text == "not" && p.peek2().Text != "exists" && p.peek2().Text != "in" && p.peek2().Text != "like" && p.peek2().Text != "between" {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *sliceParser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Optional comparison / IN / BETWEEN / LIKE suffix.
	if t := p.peek(); t.Kind == TokOp {
		if op, ok := comparisonOps[t.Text]; ok {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	if p.matchKw("is") {
		neg := p.matchKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Negated: neg}, nil
	}
	negated := false
	if t := p.peek(); t.Kind == TokIdent && t.Text == "not" {
		nxt := p.peek2().Text
		if nxt == "in" || nxt == "like" || nxt == "between" {
			p.next()
			negated = true
		}
	}
	switch {
	case p.matchKw("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{E: l, Negated: negated}
		if p.peek().Kind == TokIdent && p.peek().Text == "select" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.matchOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.matchKw("like"):
		t := p.next()
		if t.Kind != TokString {
			return nil, p.errorf("expected pattern string after LIKE")
		}
		return &LikeExpr{E: l, Pattern: t.Text, Negated: negated}, nil
	case p.matchKw("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Negated: negated}, nil
	}
	return l, nil
}

func (p *sliceParser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.matchOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpAdd, L: l, R: r}
		case p.matchOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *sliceParser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.matchOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMul, L: l, R: r}
		case p.matchOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *sliceParser) parseUnary() (Expr, error) {
	if p.matchOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NegExpr{E: e}, nil
	}
	p.matchOp("+")
	return p.parsePrimary()
}

func (p *sliceParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &Literal{Value: types.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return &Literal{Value: types.Int(n)}, nil
	case TokString:
		p.next()
		return &Literal{Value: types.Str(t.Text)}, nil
	case TokOp:
		if t.Text == "(" {
			p.next()
			if p.peek().Kind == TokIdent && p.peek().Text == "select" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		switch t.Text {
		case "date":
			p.next()
			lit := p.next()
			if lit.Kind != TokString {
				return nil, p.errorf("expected date string literal")
			}
			d, err := types.ParseDate(lit.Text)
			if err != nil {
				return nil, p.errorf("bad date %q", lit.Text)
			}
			return &Literal{Value: types.Date(d)}, nil
		case "interval":
			p.next()
			lit := p.next()
			if lit.Kind != TokString {
				return nil, p.errorf("expected interval string literal")
			}
			n, err := strconv.Atoi(strings.TrimSpace(lit.Text))
			if err != nil {
				return nil, p.errorf("bad interval %q", lit.Text)
			}
			unit := p.next()
			if unit.Kind != TokIdent {
				return nil, p.errorf("expected interval unit")
			}
			u := strings.TrimSuffix(unit.Text, "s")
			if u != "day" && u != "month" && u != "year" {
				return nil, p.errorf("unsupported interval unit %q", unit.Text)
			}
			return &Interval{N: n, Unit: u}, nil
		case "case":
			p.next()
			c := &CaseExpr{}
			for p.matchKw("when") {
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("then"); err != nil {
					return nil, err
				}
				then, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
			}
			if len(c.Whens) == 0 {
				return nil, p.errorf("CASE requires at least one WHEN")
			}
			if p.matchKw("else") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Else = e
			}
			if err := p.expectKw("end"); err != nil {
				return nil, err
			}
			return c, nil
		case "exists", "not":
			negated := false
			if t.Text == "not" {
				if p.peek2().Text != "exists" {
					return nil, p.errorf("unexpected NOT")
				}
				p.next()
				negated = true
			}
			p.next() // exists
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub, Negated: negated}, nil
		case "extract":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			field := p.next()
			if field.Kind != TokIdent {
				return nil, p.errorf("expected field in EXTRACT")
			}
			if err := p.expectKw("from"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExtractExpr{Field: field.Text, From: e}, nil
		case "substring":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("from"); err != nil {
				return nil, err
			}
			start, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("for"); err != nil {
				return nil, err
			}
			length, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &SubstringExpr{E: e, Start: start, Len: length}, nil
		case "null":
			p.next()
			return &Literal{Value: types.Null}, nil
		}
		if reserved[t.Text] {
			return nil, p.errorf("unexpected keyword %q", t.Text)
		}
		p.next()
		// Function call?
		if p.peek().Kind == TokOp && p.peek().Text == "(" {
			p.next()
			f := &FuncCall{Name: t.Text}
			if p.matchKw("distinct") {
				f.Distinct = true
			}
			if p.matchOp("*") {
				f.Star = true
			} else if !(p.peek().Kind == TokOp && p.peek().Text == ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					f.Args = append(f.Args, e)
					if !p.matchOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Column reference, possibly qualified.
		if p.matchOp(".") {
			col := p.next()
			if col.Kind != TokIdent {
				return nil, p.errorf("expected column after %q.", t.Text)
			}
			return &ColumnRef{Table: t.Text, Name: col.Text}, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	}
	return nil, p.errorf("unexpected token %q", t.Text)
}

// checkParseOracle parses input with Parse and with the token-slice
// parser: both reject it with the same error text, or both accept it
// with ASTs that print the same. (Printed, not deep-compared: a string
// literal's value points at its bytes, which each parse of an escaped
// literal allocates anew.)
func checkParseOracle(t *testing.T, input string) {
	t.Helper()
	got, gotErr := Parse(input)
	want, wantErr := parseTokenSlice(input)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("errors differ for %q:\n got %v\nwant %v", input, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.SQL() != want.SQL() {
		t.Fatalf("ASTs differ for %q:\n got %s\nwant %s", input, got.SQL(), want.SQL())
	}
}

// parseOracleInputs are the statements /predict's fuzz seeds carry
// beyond the templates, plus lexical and grammatical corners.
var parseOracleInputs = []string{
	"", "   ", "select", "select * from", "select * from nope",
	"select from from where group by",
	"select count(*) from lineitem; drop table lineitem",
	"select * from lineitem where l_quantity < ",
	"select substring(c_phone from 'a' for 2) from customer",
	"select substring(c_phone from 1.5 for 2) from customer",
	"select extract(year from c_acctbal) from customer",
	"select c_name from customer where c_acctbal like '1%'",
	"select * from lineitem -- \xff\xfe\x00",
	"SELECT max(p_type) LIKE '%BRASS' FROM part",
	"SELECT NOT (max(p_type) LIKE '%BRASS') FROM part",
	"SELECT sum(p_size) IN (1, 2) FROM part",
	"SELECT sum(p_size) NOT IN (1, 2) FROM part",
	"select 'it''s' from t", "select 'unterminated", "select @", "select a from t where b = 'x' @",
	"select a from t inner join u on t.a = u.a left outer join v on v.b = t.b",
	"select a from t order by a desc limit 5;", "select a from t;;", "select 1 2",
}

// TestParseMatchesTokenSliceParser runs Parse and the token-slice parser
// side by side on draws of all 22 templates, every prefix of one draw of
// each (truncations end mid-token and mid-clause), and the corners above.
func TestParseMatchesTokenSliceParser(t *testing.T) {
	for _, tmpl := range append(append([]int(nil), tpch.Templates...), tpch.ExtraTemplates...) {
		qs, err := tpch.GenWorkload([]int{tmpl}, 5, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			checkParseOracle(t, q.SQL)
			checkParseOracle(t, strings.ToUpper(q.SQL))
		}
		for i := range qs[0].SQL {
			checkParseOracle(t, qs[0].SQL[:i])
			checkParseOracle(t, qs[0].SQL[:i]+"@"+qs[0].SQL[i:])
		}
	}
	for _, s := range parseOracleInputs {
		checkParseOracle(t, s)
	}
}
