package tpch

import (
	"reflect"
	"runtime"
	"slices"
	"strconv"
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
		if tab.Rows.Len() != n {
			t.Errorf("%s: %d rows, want %d", name, tab.Rows.Len(), n)
		}
	}
	li, _ := db.Table(Lineitem)
	// 1..7 lines per order, expect ~4x orders.
	if li.Rows.Len() < 2*3000 || li.Rows.Len() > 7*3000 {
		t.Errorf("lineitem rows %d out of range", li.Rows.Len())
	}
}

// TestGenerateDeterministic: two generations with one seed, the second at
// a different GOMAXPROCS, give identical cells, primary-key orders and
// statistics in all eight tables.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{ScaleFactor: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	if prev == 1 {
		runtime.GOMAXPROCS(2)
	}
	b, err := Generate(GenConfig{ScaleFactor: 0.001, Seed: 7})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	names := a.Schema.TableNames()
	if len(names) != 8 || len(a.Tables) != 8 || len(b.Tables) != 8 || len(b.Stats) != 8 {
		t.Fatalf("want 8 tables, got schema %d, %d and %d loaded", len(names), len(a.Tables), len(b.Tables))
	}
	for _, name := range names {
		ta, _ := a.Table(name)
		tb, _ := b.Table(name)
		if ta.Rows.Len() != tb.Rows.Len() || ta.Pages != tb.Pages || ta.RowsPerPage != tb.RowsPerPage {
			t.Fatalf("%s: %d rows in %d pages vs %d in %d", name, ta.Rows.Len(), ta.Pages, tb.Rows.Len(), tb.Pages)
		}
		for i := range ta.Rows.Len() {
			for j, va := range ta.Rows.Row(i) {
				if vb := tb.Rows.Row(i)[j]; !types.Identical(va, vb) {
					t.Fatalf("%s row %d col %d differs: %v vs %v", name, i, j, va, vb)
				}
			}
		}
		ia, _ := a.PrimaryIndex(name)
		ib, _ := b.PrimaryIndex(name)
		if !slices.Equal(ia.Ordered(), ib.Ordered()) || ia.LeafPages != ib.LeafPages {
			t.Fatalf("%s: primary-key index differs", name)
		}
		sa, _ := a.TableStats(name)
		sb, _ := b.TableStats(name)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: statistics differ:\n%+v\n%+v", name, sa, sb)
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

	nCust, nPart, nSupp := int64(cust.Rows.Len()), int64(part.Rows.Len()), int64(supp.Rows.Len())
	orderKeys := map[int64]bool{}
	for i := range orders.Rows.Len() {
		r := orders.Rows.Row(i)
		orderKeys[r[0].I()] = true
		if ck := r[1].I(); ck < 1 || ck > nCust || ck%3 == 0 {
			t.Fatalf("bad custkey %d", ck)
		}
	}
	for i := range li.Rows.Len() {
		r := li.Rows.Row(i)
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
	for i := range orders.Rows.Len() {
		r := orders.Rows.Row(i)
		odate[r[0].I()] = r[4].I()
	}
	for i := range li.Rows.Len() {
		r := li.Rows.Row(i)
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
	for i := range li.Rows.Len() {
		r := li.Rows.Row(i)
		qty, price := r[4].F(), r[5].F()
		retail := part.Rows.Row(int(r[1].I() - 1))[7].F()
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
	for i := range orders.Rows.Len() {
		r := orders.Rows.Row(i)
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
	for i := range part.Rows.Len() {
		r := part.Rows.Row(i)
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
	for i := range cust.Rows.Len() {
		r := cust.Rows.Row(i)
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
	for i := range orders.Rows.Len() {
		r := orders.Rows.Row(i)
		c := r[8].S()
		if i := strings.Index(c, "special"); i >= 0 && strings.Contains(c[i:], "requests") {
			n++
		}
	}
	frac := float64(n) / float64(orders.Rows.Len())
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

// BenchmarkGenerate times a whole set-up database: generation, packing,
// indexing and ANALYZE of the eight tables, on GOMAXPROCS workers.
func BenchmarkGenerate(b *testing.B) {
	for _, sf := range []float64{0.001, 0.005} {
		b.Run(strconv.FormatFloat(sf, 'g', -1, 64), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(GenConfig{ScaleFactor: sf, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
