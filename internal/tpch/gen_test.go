package tpch

import (
	"strings"
	"testing"

	"qpp/internal/types"
)

func TestGenerateCardinalities(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		Region:   5,
		Nation:   25,
		Supplier: 20,
		Customer: 300,
		Part:     400,
		PartSupp: 1600,
		Orders:   3000,
	}
	for name, n := range want {
		tab, ok := db.Table(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if len(tab.Rows) != n {
			t.Errorf("%s: %d rows, want %d", name, len(tab.Rows), n)
		}
	}
	li, _ := db.Table(Lineitem)
	// 1..7 lines per order, expect ~4x orders.
	if len(li.Rows) < 2*3000 || len(li.Rows) > 7*3000 {
		t.Errorf("lineitem rows %d out of range", len(li.Rows))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{ScaleFactor: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{ScaleFactor: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Table(Orders)
	tb, _ := b.Table(Orders)
	for i := range ta.Rows {
		for j := range ta.Rows[i] {
			if !types.Identical(ta.Rows[i][j], tb.Rows[i][j]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, ta.Rows[i][j], tb.Rows[i][j])
			}
		}
	}
}

func TestGenerateReferentialIntegrity(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cust, _ := db.Table(Customer)
	orders, _ := db.Table(Orders)
	li, _ := db.Table(Lineitem)
	part, _ := db.Table(Part)
	supp, _ := db.Table(Supplier)

	nCust, nPart, nSupp := int64(len(cust.Rows)), int64(len(part.Rows)), int64(len(supp.Rows))
	orderKeys := map[int64]bool{}
	for _, r := range orders.Rows {
		orderKeys[r[0].I()] = true
		if ck := r[1].I(); ck < 1 || ck > nCust || ck%3 == 0 {
			t.Fatalf("bad custkey %d", ck)
		}
	}
	for _, r := range li.Rows {
		if !orderKeys[r[0].I()] {
			t.Fatalf("lineitem orphan orderkey %d", r[0].I())
		}
		if pk := r[1].I(); pk < 1 || pk > nPart {
			t.Fatalf("bad partkey %d", pk)
		}
		if sk := r[2].I(); sk < 1 || sk > nSupp {
			t.Fatalf("bad suppkey %d", sk)
		}
	}
}

func TestGenerateDateInvariants(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	li, _ := db.Table(Lineitem)
	orders, _ := db.Table(Orders)
	odate := map[int64]int64{}
	for _, r := range orders.Rows {
		odate[r[0].I()] = r[4].I()
	}
	for _, r := range li.Rows {
		ship, commit, receipt := r[10].I(), r[11].I(), r[12].I()
		od := odate[r[0].I()]
		if ship <= od || receipt <= ship {
			t.Fatalf("date ordering violated: o=%d ship=%d receipt=%d", od, ship, receipt)
		}
		if commit < od+30 || commit > od+90 {
			t.Fatalf("commit date out of spec window")
		}
		// returnflag/linestatus consistency with CurrentDate.
		if ship > CurrentDate && r[9].S() != "O" {
			t.Fatalf("future ship must be linestatus O")
		}
		if receipt <= CurrentDate && r[8].S() == "N" {
			t.Fatalf("past receipt must be R or A")
		}
	}
}

func TestGeneratePricing(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	li, _ := db.Table(Lineitem)
	part, _ := db.Table(Part)
	orders, _ := db.Table(Orders)
	totals := map[int64]float64{}
	for _, r := range li.Rows {
		qty, price := r[4].F(), r[5].F()
		retail := part.Rows[r[1].I()-1][7].F()
		if price != qty*retail {
			t.Fatalf("extendedprice %v != qty %v * retail %v", price, qty, retail)
		}
		if d := r[6].F(); d < 0 || d > 0.10 {
			t.Fatalf("discount %v", d)
		}
		if tax := r[7].F(); tax < 0 || tax > 0.08 {
			t.Fatalf("tax %v", tax)
		}
		totals[r[0].I()] += price * (1 + r[7].F()) * (1 - r[6].F())
	}
	for _, r := range orders.Rows {
		want := totals[r[0].I()]
		if diff := r[3].F() - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("o_totalprice %v want %v", r[3].F(), want)
		}
	}
}

func TestGenerateValueDomains(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	part, _ := db.Table(Part)
	for _, r := range part.Rows {
		if !strings.HasPrefix(r[3].S(), "Brand#") {
			t.Fatalf("brand %q", r[3].S())
		}
		if n := len(strings.Fields(r[1].S())); n != 5 {
			t.Fatalf("p_name %q should have 5 words", r[1].S())
		}
		if sz := r[5].I(); sz < 1 || sz > 50 {
			t.Fatalf("p_size %d", sz)
		}
		if r[7].F() != retailPrice(r[0].I()) {
			t.Fatalf("retail price mismatch")
		}
	}
	cust, _ := db.Table(Customer)
	segSeen := map[string]bool{}
	for _, r := range cust.Rows {
		segSeen[r[6].S()] = true
	}
	if len(segSeen) != 5 {
		t.Fatalf("segments seen %v", segSeen)
	}
}

func TestGenerateSpecialRequestsComments(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.02, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	orders, _ := db.Table(Orders)
	n := 0
	for _, r := range orders.Rows {
		c := r[8].S()
		if i := strings.Index(c, "special"); i >= 0 && strings.Contains(c[i:], "requests") {
			n++
		}
	}
	frac := float64(n) / float64(len(orders.Rows))
	if frac < 0.005 || frac > 0.10 {
		t.Fatalf("special…requests fraction %v out of expected band", frac)
	}
}

func TestGenerateStatsPresent(t *testing.T) {
	db, err := Generate(GenConfig{ScaleFactor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{Region, Nation, Supplier, Customer, Part, PartSupp, Orders, Lineitem} {
		st, ok := db.TableStats(name)
		if !ok || st.RowCount == 0 {
			t.Fatalf("stats missing for %s", name)
		}
	}
	st, _ := db.TableStats(Lineitem)
	disc := st.Column("l_discount")
	if disc == nil || disc.NDV != 11 {
		t.Fatalf("l_discount NDV %v want 11", disc.NDV)
	}
	if sd := st.Column("l_shipdate"); sd == nil || len(sd.Bounds) == 0 {
		t.Fatal("l_shipdate histogram missing")
	}
}

func TestGenerateRejectsBadSF(t *testing.T) {
	if _, err := Generate(GenConfig{ScaleFactor: 0}); err == nil {
		t.Fatal("SF 0 should fail")
	}
}

func TestSuppForPartSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		seen[suppForPart(17, i, 100)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("part should have 4 distinct suppliers, got %v", seen)
	}
	for s := range seen {
		if s < 1 || s > 100 {
			t.Fatalf("supplier %d out of range", s)
		}
	}
}
