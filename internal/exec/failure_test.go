package exec

import (
	"testing"

	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

func TestUnknownOperatorFails(t *testing.T) {
	db := testDB(t)
	n := &plan.Node{Op: plan.OpType("Alien Scan")}
	if _, err := Run(db, n, noNoiseClock(), Options{}); err == nil {
		t.Fatal("unknown operator must fail")
	}
}

func TestUnknownTableFails(t *testing.T) {
	db := testDB(t)
	n := &plan.Node{Op: plan.OpSeqScan, Table: "ghost"}
	if _, err := Run(db, n, noNoiseClock(), Options{}); err == nil {
		t.Fatal("unknown table must fail")
	}
	idx := &plan.Node{Op: plan.OpIndexScan, Table: "ghost"}
	if _, err := Run(db, idx, noNoiseClock(), Options{}); err == nil {
		t.Fatal("unknown index table must fail")
	}
}

func TestTimeoutInsideJoinPipeline(t *testing.T) {
	db := testDB(t)
	join, _, _ := hashJoinTree(plan.JoinInner)
	p := vclock.DefaultProfile()
	p.NoiseSigma = 0
	clock := vclock.NewClock(p, 1)
	// Budget smaller than one page read: abort during the build phase.
	_, err := Run(db, join, clock, Options{TimeLimit: p.SeqPageRead / 2})
	if err != ErrTimeout {
		t.Fatalf("want timeout, got %v", err)
	}
}

// TestSlowerDiskLongerLatency: the device profile is what the executor
// charges — the same TPC-H query on a disk with ten times the sequential
// page cost takes longer.
func TestSlowerDiskLongerLatency(t *testing.T) {
	db := diffDB(t)
	qs, err := tpch.GenWorkload([]int{6}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(seqPageScale float64) float64 {
		node, err := opt.PlanSQL(db, qs[0].SQL)
		if err != nil {
			t.Fatal(err)
		}
		p := vclock.DefaultProfile()
		p.NoiseSigma = 0
		p.SeqPageRead *= seqPageScale
		res, err := Run(db, node, vclock.NewClock(p, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if slow, fast := elapsed(10), elapsed(1); slow <= fast {
		t.Fatalf("slower disk must yield longer latency: %v vs %v", slow, fast)
	}
}

func TestSubPlanErrorAbortsQuery(t *testing.T) {
	db := testDB(t)
	// SubPlan index out of range: the expression records the error and the
	// executor must surface it.
	scan := scanNode("t", 2)
	scan.Filter = &plan.Bin{
		Op: plan.BEq,
		L:  &plan.SubPlan{Idx: 5, Mode: plan.SubPlanScalar, K: types.KindInt},
		R:  &plan.Const{V: types.Int(1)},
		K:  types.KindBool,
	}
	scan.NumParams = 0
	if _, err := Run(db, scan, noNoiseClock(), Options{}); err == nil {
		t.Fatal("broken sub-plan reference must fail the query")
	}
}

func TestMissingIndexFails(t *testing.T) {
	// A table without a primary key cannot back an index scan.
	db := testDB(t)
	delete(db.Indexes, "u")
	n := &plan.Node{Op: plan.OpIndexScan, Table: "u", Cols: make([]plan.Column, 2)}
	if _, err := Run(db, n, noNoiseClock(), Options{}); err == nil {
		t.Fatal("missing index must fail")
	}
}
