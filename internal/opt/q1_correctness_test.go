package opt

import (
	"math"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

// TestQ1FullCorrectness validates every aggregate of TPC-H Q1 against
// direct computation over the raw lineitem rows.
func TestQ1FullCorrectness(t *testing.T) {
	db := tpchDB(t)
	cutoff := types.MustDate("1998-12-01") - 90
	q := `select l_returnflag, l_linestatus,
	  sum(l_quantity) as sum_qty,
	  sum(l_extendedprice) as sum_base_price,
	  sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
	  sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
	  avg(l_quantity) as avg_qty,
	  avg(l_discount) as avg_disc,
	  count(*) as count_order
	from lineitem
	where l_shipdate <= date '1998-12-01' - interval '90' day
	group by l_returnflag, l_linestatus
	order by l_returnflag, l_linestatus`

	node, err := PlanSQL(db, q)
	if err != nil {
		t.Fatal(err)
	}
	prof := vclock.DefaultProfile()
	prof.NoiseSigma = 0
	res, err := exec.Run(db, node, vclock.NewClock(prof, 1), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	type agg struct {
		qty, price, disc, charge, discount float64
		n                                  int64
	}
	want := map[string]*agg{}
	li, _ := db.Table(tpch.Lineitem)
	for _, r := range li.Rows {
		if r[10].I() > cutoff {
			continue
		}
		key := r[8].S() + "|" + r[9].S()
		a := want[key]
		if a == nil {
			a = &agg{}
			want[key] = a
		}
		qty, price, disc, tax := r[4].F(), r[5].F(), r[6].F(), r[7].F()
		a.qty += qty
		a.price += price
		a.disc += price * (1 - disc)
		a.charge += price * (1 - disc) * (1 + tax)
		a.discount += disc
		a.n++
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups %d want %d", len(res.Rows), len(want))
	}
	approx := func(got, expect float64) bool {
		return math.Abs(got-expect) <= 1e-9*math.Max(1, math.Abs(expect))
	}
	prevKey := ""
	for _, row := range res.Rows {
		key := row[0].S() + "|" + row[1].S()
		if key <= prevKey {
			t.Fatalf("output not ordered: %q after %q", key, prevKey)
		}
		prevKey = key
		a := want[key]
		if a == nil {
			t.Fatalf("unexpected group %q", key)
		}
		if !approx(row[2].F(), a.qty) || !approx(row[3].F(), a.price) ||
			!approx(row[4].F(), a.disc) || !approx(row[5].F(), a.charge) {
			t.Fatalf("group %q sums wrong: %v", key, row)
		}
		if !approx(row[6].F(), a.qty/float64(a.n)) {
			t.Fatalf("group %q avg_qty %v want %v", key, row[6].F(), a.qty/float64(a.n))
		}
		if !approx(row[7].F(), a.discount/float64(a.n)) {
			t.Fatalf("group %q avg_disc wrong", key)
		}
		if row[8].I() != a.n {
			t.Fatalf("group %q count %d want %d", key, row[8].I(), a.n)
		}
	}
}
