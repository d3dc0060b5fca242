package sql

import (
	"math/rand"
	"testing"

	"qpp/internal/types"
)

// cloneQueries exercises every AST node kind the parser produces.
var cloneQueries = []string{
	"select l_returnflag, sum(l_quantity) from lineitem where l_shipdate <= date '1998-09-02' - interval '90' day group by l_returnflag order by l_returnflag limit 10",
	"select case when n_name = 'FRANCE' then 1 else 0 end from nation where n_name like 'F%' and n_regionkey in (1, 2, 3)",
	"select count(*) from orders where exists (select o_orderkey from lineitem where l_orderkey = o_orderkey) and o_totalprice between 100 and 200",
	"select distinct c_custkey from customer where c_custkey in (select o_custkey from orders) and c_phone is not null",
	"select extract(year from o_orderdate) as y, substring(c_phone from 1 for 2) from orders, customer where -o_totalprice < 0 and not (o_orderkey = 1)",
	"select t.a from (select n_nationkey from nation) as t (a) left outer join region on r_regionkey = t.a",
	"select max(s_acctbal) from supplier where s_acctbal > (select avg(s_acctbal) from supplier)",
}

// TestCloneSelectRoundTrip checks the clone renders to identical SQL and
// shares no mutable state with the original.
func TestCloneSelectRoundTrip(t *testing.T) {
	for _, q := range cloneQueries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		clone := CloneSelect(stmt)
		if got, want := clone.SQL(), stmt.SQL(); got != want {
			t.Fatalf("clone render mismatch:\n got %s\nwant %s", got, want)
		}
		// Mutating every literal in the clone must leave the original
		// untouched.
		before := stmt.SQL()
		mutateLiterals(clone)
		if stmt.SQL() != before {
			t.Fatalf("mutating the clone changed the original for %q", q)
		}
	}
}

func mutateLiterals(s *SelectStmt) {
	mutExpr := func(e Expr) {
		Inspect(e, func(n Expr) bool {
			switch v := n.(type) {
			case *Literal:
				switch v.Value.Kind {
				case types.KindFloat:
					v.Value = types.Float(v.Value.F() + 1)
				case types.KindString:
					v.Value = types.Str(v.Value.S() + "x")
				default:
					v.Value = types.Int(v.Value.I() ^ 1)
				}
			case *Interval:
				v.N++
			case *LikeExpr:
				v.Pattern += "%"
			case *InExpr:
				if v.Sub != nil {
					mutateLiterals(v.Sub)
				}
			case *ExistsExpr:
				mutateLiterals(v.Sub)
			case *SubqueryExpr:
				mutateLiterals(v.Sub)
			}
			return true
		})
	}
	for i := range s.Items {
		mutExpr(s.Items[i].E)
	}
	for i := range s.From {
		if s.From[i].Sub != nil {
			mutateLiterals(s.From[i].Sub)
		}
	}
	for i := range s.Joins {
		if s.Joins[i].Item.Sub != nil {
			mutateLiterals(s.Joins[i].Item.Sub)
		}
		mutExpr(s.Joins[i].On)
	}
	mutExpr(s.Where)
	for _, g := range s.GroupBy {
		mutExpr(g)
	}
	mutExpr(s.Having)
	for _, o := range s.OrderBy {
		mutExpr(o.E)
	}
	if s.Limit >= 0 {
		s.Limit++
	}
}

// TestCloneSelectFuzzSeeds runs the clone over randomized fuzz-corpus
// style inputs: any string the parser accepts must clone to identical SQL.
func TestCloneSelectFuzzSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := []string{"select 1 from nation", "select n_name from nation where n_nationkey = 3"}
	for i := 0; i < 50; i++ {
		q := base[rng.Intn(len(base))]
		stmt, err := Parse(q)
		if err != nil {
			continue
		}
		if CloneSelect(stmt).SQL() != stmt.SQL() {
			t.Fatalf("clone mismatch for %q", q)
		}
	}
}
