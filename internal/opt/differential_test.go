package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"qpp/internal/exec"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
)

// TestDifferentialRandomFilters is a randomized differential test: random
// range/equality predicates over orders are executed through the full
// parse→plan→execute pipeline and checked against direct evaluation over
// the raw rows.
func TestDifferentialRandomFilters(t *testing.T) {
	db := tpchDB(t)
	orders, _ := db.Table(tpch.Orders)
	prof := vclock.DefaultProfile()
	prof.NoiseSigma = 0

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		loKey := rng.Intn(3000)
		hiKey := loKey + rng.Intn(3000)
		prio := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}[rng.Intn(5)]
		useOr := rng.Intn(2) == 0
		connector := "and"
		if useOr {
			connector = "or"
		}
		q := fmt.Sprintf(
			"select count(*) from orders where o_orderkey between %d and %d %s o_orderpriority = '%s'",
			loKey, hiKey, connector, prio)

		node, err := PlanSQL(db, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := exec.Run(db, node, vclock.NewClock(prof, 1), exec.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want int64
		for _, r := range orders.Rows {
			inRange := r[0].I() >= int64(loKey) && r[0].I() <= int64(hiKey)
			prioMatch := r[5].S() == prio
			if (useOr && (inRange || prioMatch)) || (!useOr && inRange && prioMatch) {
				want++
			}
		}
		if got := res.Rows[0][0].I(); got != want {
			t.Fatalf("trial %d (%s): got %d want %d\nquery: %s", trial, connector, got, want, q)
		}
	}
}

// TestDifferentialRandomJoins cross-checks random equi-join + filter
// combinations against nested-loop evaluation over the raw rows.
func TestDifferentialRandomJoins(t *testing.T) {
	db := tpchDB(t)
	orders, _ := db.Table(tpch.Orders)
	cust, _ := db.Table(tpch.Customer)
	prof := vclock.DefaultProfile()
	prof.NoiseSigma = 0

	rng := rand.New(rand.NewSource(7))
	segs := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	for trial := 0; trial < 10; trial++ {
		seg := segs[rng.Intn(len(segs))]
		maxBal := float64(rng.Intn(10000))
		q := fmt.Sprintf(
			"select count(*), sum(o_totalprice) from orders, customer "+
				"where o_custkey = c_custkey and c_mktsegment = '%s' and c_acctbal < %.2f",
			seg, maxBal)
		node, err := PlanSQL(db, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(db, node, vclock.NewClock(prof, 1), exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		match := map[int64]bool{}
		for _, c := range cust.Rows {
			if c[6].S() == seg && c[5].F() < maxBal {
				match[c[0].I()] = true
			}
		}
		var wantN int64
		var wantSum float64
		for _, o := range orders.Rows {
			if match[o[1].I()] {
				wantN++
				wantSum += o[3].F()
			}
		}
		if res.Rows[0][0].I() != wantN {
			t.Fatalf("trial %d: count %d want %d", trial, res.Rows[0][0].I(), wantN)
		}
		gotSum := res.Rows[0][1].F()
		if wantN > 0 && (gotSum-wantSum > 1e-6*wantSum || wantSum-gotSum > 1e-6*wantSum) {
			t.Fatalf("trial %d: sum %v want %v", trial, gotSum, wantSum)
		}
	}
}
