package sql

import (
	"testing"

	"qpp/internal/tpch"
)

// FuzzParse feeds arbitrary input to the parser, seeded with one instance
// of every TPC-H template plus hand-picked grammar corners. The parser
// must never panic, and any statement it accepts must round-trip through
// its SQL rendering: SQL(parse(SQL(parse(input)))) is a fixed point.
func FuzzParse(f *testing.F) {
	qs, err := tpch.GenWorkload(tpch.Templates, 1, 42)
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range qs {
		f.Add(q.SQL)
	}
	for _, s := range []string{
		"",
		"select",
		"select 1",
		"select * from t",
		"select a, count(distinct b) from t where a is not null group by a having count(*) > 1 order by a desc limit 5",
		"select -1.5e10, 'it''s', (a + b) * c from t, u where a in (1, 2) and b between 1 and 2",
		"select case when a > 0 then 1 else 2 end from t",
		"select a from t where exists (select 1 from u where u.a = t.a)",
		"select extract(year from o_orderdate) from orders",
		"select substring(s from 1 for 2) || 'x' from t",
		"select ((((((1))))))",
		"select 1 from t where not not a like '%x_'",
		// Wrong-kind operands the binder refuses (the parser accepts them).
		"select substring(c_phone from 'a' for 2) from customer",
		"select substring(c_phone from 1.5 for 2) from customer",
		"select extract(year from c_acctbal) from customer",
		"select c_name from customer where c_acctbal like '1%'",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil || stmt == nil {
			return // rejecting is fine; panicking is not
		}
		text := stmt.SQL()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("accepted statement failed to re-parse: %v\ninput: %q\nrendered: %q", err, input, text)
		}
		if got := again.SQL(); got != text {
			t.Fatalf("rendering is not a fixed point:\nfirst:  %q\nsecond: %q\ninput:  %q", text, got, input)
		}
	})
}
