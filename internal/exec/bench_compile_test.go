package exec

// Micro-benchmarks of the expression compiler against the tree-walking
// interpreter on the per-row predicates and projections that dominate the
// Q1/Q6/Q18 hot paths. These measure pure evaluation — no clock, no
// operators — so the ratio is the raw dispatch + specialization win.

import (
	"testing"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// q6Filter is the shape of template 6's scan filter: a conjunction of a
// date range, a decimal BETWEEN and a quantity comparison over columns
// 0..2 (shipdate, discount, quantity).
func q6Filter() plan.Scalar {
	shipdate := &plan.Col{Idx: 0, K: types.KindDate}
	discount := &plan.Col{Idx: 1, K: types.KindFloat}
	quantity := &plan.Col{Idx: 2, K: types.KindFloat}
	and := func(l, r plan.Scalar) plan.Scalar {
		return &plan.Bin{Op: plan.BAnd, L: l, R: r, K: types.KindBool}
	}
	return and(
		and(
			&plan.Bin{Op: plan.BGe, L: shipdate, R: &plan.Const{V: types.Date(9131)}, K: types.KindBool},
			&plan.Bin{Op: plan.BLt, L: shipdate, R: &plan.Const{V: types.Date(9496)}, K: types.KindBool},
		),
		and(
			&plan.Between{E: discount, Lo: &plan.Const{V: types.Float(0.05)}, Hi: &plan.Const{V: types.Float(0.07)}},
			&plan.Bin{Op: plan.BLt, L: quantity, R: &plan.Const{V: types.Float(24)}, K: types.KindBool},
		),
	)
}

// q1Projection is template 1's revenue expression:
// extendedprice * (1 - discount) * (1 + tax) over columns 3..5.
func q1Projection() plan.Scalar {
	price := &plan.Col{Idx: 3, K: types.KindFloat}
	discount := &plan.Col{Idx: 4, K: types.KindFloat}
	tax := &plan.Col{Idx: 5, K: types.KindFloat}
	one := &plan.Const{V: types.Float(1)}
	return &plan.Bin{
		Op: plan.BMul,
		L: &plan.Bin{Op: plan.BMul, L: price,
			R: &plan.Bin{Op: plan.BSub, L: one, R: discount, K: types.KindFloat}, K: types.KindFloat},
		R: &plan.Bin{Op: plan.BAdd, L: one, R: tax, K: types.KindFloat},
		K: types.KindFloat,
	}
}

// q18Having is the shape of template 18's HAVING predicate plus the LIKE
// and IN shapes common to the string-heavy templates, over columns 6..7.
func q18Having() plan.Scalar {
	sumQty := &plan.Col{Idx: 6, K: types.KindFloat}
	mode := &plan.Col{Idx: 7, K: types.KindString}
	and := func(l, r plan.Scalar) plan.Scalar {
		return &plan.Bin{Op: plan.BAnd, L: l, R: r, K: types.KindBool}
	}
	return and(
		&plan.Bin{Op: plan.BGt, L: sumQty, R: &plan.Const{V: types.Float(300)}, K: types.KindBool},
		and(
			plan.NewLike(mode, "%AIR%", false),
			&plan.In{E: mode, List: []plan.Scalar{
				&plan.Const{V: types.Str("AIR")},
				&plan.Const{V: types.Str("AIR REG")},
				&plan.Const{V: types.Str("MAIL")},
			}},
		),
	)
}

func benchRow() plan.Row {
	return plan.Row{
		types.Date(9200),     // shipdate inside the range
		types.Float(0.06),    // discount inside the BETWEEN
		types.Float(17),      // quantity < 24
		types.Float(1234.56), // extendedprice
		types.Float(0.04),    // discount
		types.Float(0.06),    // tax
		types.Float(305),     // sum(l_quantity)
		types.Str("AIR REG"), // shipmode
	}
}

func benchScalar(b *testing.B, s plan.Scalar, compiled bool) {
	row := benchRow()
	ectx := &plan.Ctx{}
	eval := s.Eval
	if compiled {
		eval = compile(s)
	}
	if got, want := eval(ectx, row), s.Eval(ectx, row); !types.Identical(got, want) {
		b.Fatalf("compiled %#v != interpreted %#v", got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(ectx, row)
	}
}

func BenchmarkScalarEvalCompiled(b *testing.B) {
	b.Run("q6filter", func(b *testing.B) { benchScalar(b, q6Filter(), true) })
	b.Run("q1projection", func(b *testing.B) { benchScalar(b, q1Projection(), true) })
	b.Run("q18having", func(b *testing.B) { benchScalar(b, q18Having(), true) })
}

func BenchmarkScalarEvalInterpreted(b *testing.B) {
	b.Run("q6filter", func(b *testing.B) { benchScalar(b, q6Filter(), false) })
	b.Run("q1projection", func(b *testing.B) { benchScalar(b, q1Projection(), false) })
	b.Run("q18having", func(b *testing.B) { benchScalar(b, q18Having(), false) })
}
