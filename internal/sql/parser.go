package sql

import (
	"fmt"
	"strconv"
	"strings"

	"qpp/internal/arena"
	"qpp/internal/types"
)

// Parse parses a single SELECT statement (optionally ';'-terminated). A
// lexical error anywhere in the input is reported before any parse error:
// the parser reads tokens straight from a Scanner with two tokens of
// lookahead, and only when it fails is the rest of the input scanned.
func Parse(input string) (*SelectStmt, error) { return ParseIn(nil, input) }

// ParseIn is Parse with the statement's nodes and lists carved from a (the
// heap when a is nil): the AST is valid until a is released. Token texts,
// and so every name and string literal in it, are ordinary strings.
func ParseIn(a *arena.Arena, input string) (*SelectStmt, error) {
	p := &parser{sc: NewScanner(input), src: input, mem: a}
	if p.t0, p.lexErr = p.sc.Next(); p.lexErr == nil {
		p.t1, p.lexErr = p.sc.Next()
	}
	stmt, err := p.parseSelect()
	if err == nil {
		p.matchOp(";")
		if p.peek().Kind != TokEOF {
			err = p.errorf("unexpected trailing input %q", p.peek().Text)
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		if lexErr := p.sc.Validate(); lexErr != nil {
			return nil, lexErr
		}
		return nil, err
	}
	return stmt, nil
}

// keywords that terminate aliases and identifiers-as-names.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "having": true,
	"order": true, "limit": true, "and": true, "or": true, "not": true,
	"on": true, "join": true, "left": true, "inner": true, "outer": true,
	"as": true, "asc": true, "desc": true, "by": true, "in": true, "like": true,
	"between": true, "exists": true, "case": true, "when": true, "then": true,
	"else": true, "end": true, "distinct": true, "interval": true, "date": true,
	"is": true, "null": true, "union": true,
}

// parser is a recursive-descent parser over a Scanner: t0 is the current
// token, t1 the one after it (TokEOF repeats at the end, as the Scanner
// does). lexErr keeps the first error the Scanner reports.
type parser struct {
	sc     Scanner
	t0, t1 Token
	lexErr error
	src    string
	mem    *arena.Arena
}

// The slabs of every AST node and list a parse allocates.
var (
	selects     = arena.NewSlab[SelectStmt]()
	selectItems = arena.NewSlab[SelectItem]()
	fromItems   = arena.NewSlab[FromItem]()
	joinClauses = arena.NewSlab[Join]()
	orderItems  = arena.NewSlab[OrderItem]()
	exprLists   = arena.NewSlab[Expr]()
	names       = arena.NewSlab[string]()
	whens       = arena.NewSlab[WhenClause]()
	binaries    = arena.NewSlab[BinaryExpr]()
	columnRefs  = arena.NewSlab[ColumnRef]()
	literals    = arena.NewSlab[Literal]()
	intervals   = arena.NewSlab[Interval]()
	nots        = arena.NewSlab[NotExpr]()
	negs        = arena.NewSlab[NegExpr]()
	funcCalls   = arena.NewSlab[FuncCall]()
	cases       = arena.NewSlab[CaseExpr]()
	ins         = arena.NewSlab[InExpr]()
	existsExprs = arena.NewSlab[ExistsExpr]()
	betweens    = arena.NewSlab[BetweenExpr]()
	likes       = arena.NewSlab[LikeExpr]()
	isNulls     = arena.NewSlab[IsNullExpr]()
	subqueries  = arena.NewSlab[SubqueryExpr]()
	extracts    = arena.NewSlab[ExtractExpr]()
	substrings  = arena.NewSlab[SubstringExpr]()
)

func (p *parser) peek() Token  { return p.t0 }
func (p *parser) peek2() Token { return p.t1 }
func (p *parser) next() Token {
	t := p.t0
	if t.Kind != TokEOF {
		p.t0 = p.t1
		var err error
		if p.t1, err = p.sc.Next(); err != nil && p.lexErr == nil {
			p.lexErr = err
		}
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// matchKw consumes the given keyword if present.
func (p *parser) matchKw(kw string) bool {
	if t := p.peek(); t.Kind == TokIdent && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.matchKw(kw) {
		return p.errorf("expected %q, found %q", kw, p.peek().Text)
	}
	return nil
}

// matchOp consumes the given operator if present.
func (p *parser) matchOp(op string) bool {
	if t := p.peek(); t.Kind == TokOp && t.Text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.matchOp(op) {
		return p.errorf("expected %q, found %q", op, p.peek().Text)
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	stmt := selects.New(p.mem, SelectStmt{Limit: -1})
	stmt.Distinct = p.matchKw("distinct")

	// Each list gathers in a buffer on the stack and is copied out once, at
	// its final length, instead of growing through a chain of doublings.
	var itemBuf [16]SelectItem
	var fromBuf [8]FromItem
	var exprBuf [8]Expr
	var orderBuf [8]OrderItem

	// Projection list.
	items := itemBuf[:0]
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
		items = append(items, item)
		if !p.matchOp(",") {
			break
		}
	}
	stmt.Items = selectItems.Clone(p.mem, items)

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	from := fromBuf[:0]
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		from = append(from, fi)
		if !p.matchOp(",") {
			break
		}
	}
	stmt.From = fromItems.Clone(p.mem, from)

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
			stmt.Joins = joinClauses.Append(p.mem, stmt.Joins, Join{Type: jt, Item: fi, On: on})
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
		groups := exprBuf[:0]
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			groups = append(groups, e)
			if !p.matchOp(",") {
				break
			}
		}
		stmt.GroupBy = exprLists.Clone(p.mem, groups)
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
		order := orderBuf[:0]
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
			order = append(order, o)
			if !p.matchOp(",") {
				break
			}
		}
		stmt.OrderBy = orderItems.Clone(p.mem, order)
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

func (p *parser) parseFromItem() (FromItem, error) {
	var fi FromItem
	if p.matchOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return fi, err
		}
		if err := p.expectOp(")"); err != nil {
			return fi, err
		}
		fi.Sub = sub
	} else {
		t := p.next()
		if t.Kind != TokIdent || reserved[t.Text] {
			return fi, p.errorf("expected table name, found %q", t.Text)
		}
		fi.Table = t.Text
	}
	if p.matchKw("as") {
		t := p.next()
		if t.Kind != TokIdent {
			return fi, p.errorf("expected alias after AS")
		}
		fi.Alias = t.Text
	} else if t := p.peek(); t.Kind == TokIdent && !reserved[t.Text] {
		fi.Alias = p.next().Text
	}
	if fi.Sub != nil && fi.Alias == "" {
		return fi, p.errorf("derived table requires an alias")
	}
	// Optional derived-column alias list.
	if fi.Alias != "" && p.peek().Kind == TokOp && p.peek().Text == "(" && p.peek2().Kind == TokIdent {
		// Distinguish "(col, …)" alias lists from nothing else: only derived
		// tables may carry one, and base tables never have a '(' after alias.
		p.next() // consume '('
		for {
			t := p.next()
			if t.Kind != TokIdent {
				return fi, p.errorf("expected column alias")
			}
			fi.ColAliases = names.Append(p.mem, fi.ColAliases, t.Text)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return fi, err
		}
	}
	return fi, nil
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binaries.New(p.mem, BinaryExpr{Op: OpOr, L: l, R: r})
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
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
			l = binaries.New(p.mem, BinaryExpr{Op: OpAnd, L: l, R: r})
			continue
		}
		return l, nil
	}
}

func (p *parser) parseNot() (Expr, error) {
	if t := p.peek(); t.Kind == TokIdent && t.Text == "not" && p.peek2().Text != "exists" && p.peek2().Text != "in" && p.peek2().Text != "like" && p.peek2().Text != "between" {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return nots.New(p.mem, NotExpr{E: e}), nil
	}
	return p.parsePredicate()
}

var comparisonOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
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
			return binaries.New(p.mem, BinaryExpr{Op: op, L: l, R: r}), nil
		}
	}
	if p.matchKw("is") {
		neg := p.matchKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return isNulls.New(p.mem, IsNullExpr{E: l, Negated: neg}), nil
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
		in := ins.New(p.mem, InExpr{E: l, Negated: negated})
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
				in.List = exprLists.Append(p.mem, in.List, e)
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
		return likes.New(p.mem, LikeExpr{E: l, Pattern: t.Text, Negated: negated}), nil
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
		return betweens.New(p.mem, BetweenExpr{E: l, Lo: lo, Hi: hi, Negated: negated}), nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
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
			l = binaries.New(p.mem, BinaryExpr{Op: OpAdd, L: l, R: r})
		case p.matchOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = binaries.New(p.mem, BinaryExpr{Op: OpSub, L: l, R: r})
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
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
			l = binaries.New(p.mem, BinaryExpr{Op: OpMul, L: l, R: r})
		case p.matchOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binaries.New(p.mem, BinaryExpr{Op: OpDiv, L: l, R: r})
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.matchOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negs.New(p.mem, NegExpr{E: e}), nil
	}
	p.matchOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return literals.New(p.mem, Literal{Value: types.Float(f)}), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return literals.New(p.mem, Literal{Value: types.Int(n)}), nil
	case TokString:
		p.next()
		return literals.New(p.mem, Literal{Value: types.Str(t.Text)}), nil
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
				return subqueries.New(p.mem, SubqueryExpr{Sub: sub}), nil
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
			return literals.New(p.mem, Literal{Value: types.Date(d)}), nil
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
			return intervals.New(p.mem, Interval{N: n, Unit: u}), nil
		case "case":
			p.next()
			c := cases.New(p.mem, CaseExpr{})
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
				c.Whens = whens.Append(p.mem, c.Whens, WhenClause{Cond: cond, Then: then})
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
			return existsExprs.New(p.mem, ExistsExpr{Sub: sub, Negated: negated}), nil
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
			return extracts.New(p.mem, ExtractExpr{Field: field.Text, From: e}), nil
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
			return substrings.New(p.mem, SubstringExpr{E: e, Start: start, Len: length}), nil
		case "null":
			p.next()
			return literals.New(p.mem, Literal{Value: types.Null}), nil
		}
		if reserved[t.Text] {
			return nil, p.errorf("unexpected keyword %q", t.Text)
		}
		p.next()
		// Function call?
		if p.peek().Kind == TokOp && p.peek().Text == "(" {
			p.next()
			f := funcCalls.New(p.mem, FuncCall{Name: t.Text})
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
					f.Args = exprLists.Append(p.mem, f.Args, e)
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
			return columnRefs.New(p.mem, ColumnRef{Table: t.Text, Name: col.Text}), nil
		}
		return columnRefs.New(p.mem, ColumnRef{Name: t.Text}), nil
	}
	return nil, p.errorf("unexpected token %q", t.Text)
}
