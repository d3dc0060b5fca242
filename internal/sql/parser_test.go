package sql

import (
	"strings"
	"testing"

	"qpp/internal/types"
)

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s', 3.14 FROM t -- comment\nWHERE x >= 10")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"select", "a", ".", "b", ",", "it's", ",", "3.14", "from", "t", "where", "x", ">=", "10", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q want %q (all: %v)", i, texts[i], want[i], texts)
		}
	}
	_ = kinds
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("select 'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := Lex("select @"); err == nil {
		t.Fatal("bad char should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "select a, b as bb from t where a > 5 order by b desc limit 10")
	if len(s.Items) != 2 || s.Items[1].Alias != "bb" {
		t.Fatalf("items %+v", s.Items)
	}
	if s.From[0].Table != "t" {
		t.Fatal("from")
	}
	if s.Limit != 10 {
		t.Fatal("limit")
	}
	if !s.OrderBy[0].Desc {
		t.Fatal("desc")
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != OpGt {
		t.Fatalf("where %T", s.Where)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "select 1 from t where a = 1 or b = 2 and c = 3")
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top must be OR, got %v", s.Where.SQL())
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right of OR must be AND, got %v", or.R.SQL())
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := mustParse(t, "select a + b * c - d from t")
	// Expect (a + (b*c)) - d
	top := s.Items[0].E.(*BinaryExpr)
	if top.Op != OpSub {
		t.Fatalf("top %v", top.Op)
	}
	add := top.L.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("left %v", add.Op)
	}
	if mul := add.R.(*BinaryExpr); mul.Op != OpMul {
		t.Fatalf("inner %v", mul.Op)
	}
}

func TestParseDateIntervalCase(t *testing.T) {
	s := mustParse(t, `select case when x > 0 then 1 else 0 end
		from t where d >= date '1994-01-01' and d < date '1994-01-01' + interval '1' year`)
	c := s.Items[0].E.(*CaseExpr)
	if len(c.Whens) != 1 || c.Else == nil {
		t.Fatal("case shape")
	}
	and := s.Where.(*BinaryExpr)
	lt := and.R.(*BinaryExpr)
	add := lt.R.(*BinaryExpr)
	iv, ok := add.R.(*Interval)
	if !ok || iv.N != 1 || iv.Unit != "year" {
		t.Fatalf("interval %+v", add.R)
	}
	lit := add.L.(*Literal)
	if lit.Value.Kind() != types.KindDate {
		t.Fatal("date literal kind")
	}
}

func TestParseBetweenInLike(t *testing.T) {
	s := mustParse(t, `select 1 from t where a between 1 and 10
		and b in (1, 2, 3) and c like '%x%' and d not like 'y%'
		and e not in (4) and f not between 2 and 3`)
	sqlText := s.Where.SQL()
	for _, want := range []string{"between 1 and 10", "not like", "not in", "not between"} {
		if !strings.Contains(sqlText, want) {
			t.Fatalf("missing %q in %s", want, sqlText)
		}
	}
}

func TestParseSubqueries(t *testing.T) {
	s := mustParse(t, `select 1 from t where exists (select 1 from u where u.a = t.a)
		and x in (select y from v)
		and z > (select avg(w) from q)`)
	and1 := s.Where.(*BinaryExpr)
	_ = and1
	found := map[string]bool{}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *ExistsExpr:
			found["exists"] = true
		case *InExpr:
			if v.Sub != nil {
				found["insub"] = true
			}
		case *SubqueryExpr:
			found["scalar"] = true
		}
	}
	walk(s.Where)
	if !found["exists"] || !found["insub"] || !found["scalar"] {
		t.Fatalf("found %v", found)
	}
}

func TestParseNotExists(t *testing.T) {
	s := mustParse(t, "select 1 from t where not exists (select 1 from u)")
	ne := s.Where.(*ExistsExpr)
	if !ne.Negated {
		t.Fatal("negated exists")
	}
}

func TestParseDerivedTableWithColAliases(t *testing.T) {
	s := mustParse(t, `select c_count, count(*) as custdist
		from (select c_custkey, count(o_orderkey) from customer
		      left outer join orders on c_custkey = o_custkey
		      group by c_custkey) as c_orders (c_custkey, c_count)
		group by c_count order by custdist desc, c_count desc`)
	f := s.From[0]
	if f.Sub == nil || f.Alias != "c_orders" {
		t.Fatalf("from %+v", f)
	}
	if len(f.ColAliases) != 2 || f.ColAliases[1] != "c_count" {
		t.Fatalf("col aliases %v", f.ColAliases)
	}
	if len(f.Sub.Joins) != 1 || f.Sub.Joins[0].Type != JoinLeft {
		t.Fatal("left join missing")
	}
}

func TestParseFunctions(t *testing.T) {
	s := mustParse(t, `select count(*), sum(a * (1 - b)), extract(year from d),
		substring(p from 1 for 2) from t group by 1`)
	if f := s.Items[0].E.(*FuncCall); !f.Star || f.Name != "count" {
		t.Fatal("count(*)")
	}
	if f := s.Items[1].E.(*FuncCall); !f.IsAggregate() || len(f.Args) != 1 {
		t.Fatal("sum")
	}
	if e := s.Items[2].E.(*ExtractExpr); e.Field != "year" {
		t.Fatal("extract")
	}
	if sub := s.Items[3].E.(*SubstringExpr); sub.E == nil {
		t.Fatal("substring")
	}
}

func TestParseGroupHaving(t *testing.T) {
	s := mustParse(t, `select a, sum(b) from t group by a having sum(b) > 100`)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatal("group/having")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select 1",              // no FROM
		"select 1 from",         // no table
		"select 1 from t where", // dangling where
		"select 1 from t limit x",
		"select 1 from (select 2 from u)", // derived table without alias
		"select case end from t",
		"select 1 from t where a between 1",
		"select 1 from t alias1 alias2", // second bare alias is trailing junk
		"select f( from t",
		"select 1 from t where a like 5",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseSQLRoundTrip(t *testing.T) {
	queries := []string{
		"select a, b as bb from t where a > 5 order by b desc limit 10",
		"select count(*) from t, u where t.a = u.b group by t.c having count(*) > 2",
		"select case when x > 0 then 1 else 0 end from t",
		"select 1 from t where exists (select 1 from u where u.a = t.a)",
		"select sum(a * (1 - b)) from t where d between date '1994-01-01' and date '1995-01-01'",
		"select distinct a from t where b in (1, 2, 3)",
		"select 1 from t left outer join u on t.a = u.a where t.x like '%y%'",
		"select substring(p from 1 for 2), extract(year from d) from t",
		"select -a from t where not (a = 1)",
	}
	for _, q := range queries {
		s1 := mustParse(t, q)
		text := s1.SQL()
		s2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", text, err)
		}
		if s2.SQL() != text {
			t.Fatalf("round trip unstable:\n%s\n%s", text, s2.SQL())
		}
	}
}

func TestParseSemicolonAndComments(t *testing.T) {
	s := mustParse(t, "select 1 from t; -- trailing comment")
	if len(s.Items) != 1 {
		t.Fatal("items")
	}
}
