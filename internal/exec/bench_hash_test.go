package exec

// Operator benchmarks of the typed hash table's two big customers, on a
// generated SF 0.01 database: the layer's own number next to the whole-
// query BenchmarkExecutionQ6 of the root package. Each iteration is one
// exec.Run of a hand-built plan, so allocs/op is what a query pays for
// the operator and its two scans.

import (
	"sync"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

var benchDBOnce struct {
	sync.Once
	db  *storage.Database
	err error
}

func benchDB(b *testing.B) *storage.Database {
	b.Helper()
	benchDBOnce.Do(func() {
		benchDBOnce.db, benchDBOnce.err = tpch.Generate(tpch.GenConfig{ScaleFactor: 0.01, Seed: 6})
	})
	if benchDBOnce.err != nil {
		b.Fatal(benchDBOnce.err)
	}
	return benchDBOnce.db
}

// tableScan is a sequential scan of a schema table plus a resolver from
// column name to a bare reference into the scan's rows.
func tableScan(b *testing.B, db *storage.Database, name string) (*plan.Node, func(col string) *plan.Col) {
	b.Helper()
	meta, ok := db.Schema.Table(name)
	if !ok {
		b.Fatalf("no table %q", name)
	}
	scan := scanNode(name, len(meta.Columns))
	scan.Est.Rows = float64(db.Tables[name].Rows.Len())
	return scan, func(col string) *plan.Col {
		i := meta.ColumnIndex(col)
		if i < 0 {
			b.Fatalf("no column %s.%s", name, col)
		}
		return &plan.Col{Idx: i, K: meta.Columns[i].Type, Name: col}
	}
}

func benchRun(b *testing.B, db *storage.Database, root *plan.Node, wantRows int) {
	prof := vclock.DefaultProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(db, root, vclock.NewClock(prof, 1), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			b.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
		}
	}
}

// BenchmarkHashJoinBuildProbe is lineitem ⋈ orders on the order key: build
// on every order (unique integer keys), probe with every line item, count
// the matches.
func BenchmarkHashJoinBuildProbe(b *testing.B) {
	db := benchDB(b)
	lineitem, lcol := tableScan(b, db, "lineitem")
	orders, ocol := tableScan(b, db, "orders")
	hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{orders}, Cols: orders.Cols, Est: orders.Est}
	join := &plan.Node{
		Op:       plan.OpHashJoin,
		Children: []*plan.Node{lineitem, hash},
		Cols:     make([]plan.Column, len(lineitem.Cols)+len(orders.Cols)),
		Join:     &plan.JoinPayload{HashKeysL: []plan.Scalar{lcol("l_orderkey")}, HashKeysR: []plan.Scalar{ocol("o_orderkey")}},
	}
	count := &plan.Node{
		Op: plan.OpAggregate, Children: []*plan.Node{join},
		Cols: make([]plan.Column, 1),
		Agg:  &plan.AggPayload{Aggs: []plan.AggSpec{{Func: plan.AggCount, K: types.KindInt}}},
	}
	benchRun(b, db, count, 1)
}

// BenchmarkHashAggregate is Q1's grouping: lineitem by (l_returnflag,
// l_linestatus) — two string columns, four groups, a hit on nearly every
// row — with a sum and a count.
func BenchmarkHashAggregate(b *testing.B) {
	db := benchDB(b)
	lineitem, lcol := tableScan(b, db, "lineitem")
	agg := &plan.Node{
		Op: plan.OpHashAggregate, Children: []*plan.Node{lineitem},
		Cols: make([]plan.Column, 4),
		Agg: &plan.AggPayload{
			GroupBy: []plan.Scalar{lcol("l_returnflag"), lcol("l_linestatus")},
			Aggs: []plan.AggSpec{
				{Func: plan.AggSum, Arg: lcol("l_quantity"), K: types.KindFloat},
				{Func: plan.AggCount, K: types.KindInt},
			},
		},
		Est: plan.Estimates{Rows: 4},
	}
	benchRun(b, db, agg, 4)
}
