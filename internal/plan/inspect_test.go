package plan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/types"
)

// TestInspectVisitsEveryOperand sets every operand field of every
// expression node type (each Expr or Scalar field, each slice of them and
// each WHEN arm) to distinct marker leaves and requires sql.Inspect and
// plan.Inspect to visit each marker exactly once, in field order. The node
// types come from the source: the receivers of SQL in internal/sql and of
// Eval in internal/plan. A new node type or operand field fails here until
// its walker knows it.
func TestInspectVisitsEveryOperand(t *testing.T) {
	t.Run("sql", func(t *testing.T) {
		sql.Inspect(nil, func(sql.Expr) bool { t.Error("fn called for a nil tree"); return true })
		checkOperands(t, "../sql", "SQL",
			// A statement is not an expression: Inspect never enters one.
			map[string]bool{"SelectStmt": true},
			[]any{
				&sql.ColumnRef{}, &sql.Literal{}, &sql.Interval{}, &sql.BinaryExpr{},
				&sql.NotExpr{}, &sql.NegExpr{}, &sql.FuncCall{}, &sql.CaseExpr{},
				&sql.InExpr{}, &sql.ExistsExpr{}, &sql.BetweenExpr{}, &sql.LikeExpr{},
				&sql.IsNullExpr{}, &sql.SubqueryExpr{}, &sql.ExtractExpr{}, &sql.SubstringExpr{},
			},
			reflect.TypeOf((*sql.Expr)(nil)).Elem(),
			func(i int) any { return &sql.Literal{Value: types.Int(int64(i))} },
			func(root any, visit func(any) bool) {
				sql.Inspect(root.(sql.Expr), func(e sql.Expr) bool { return visit(e) })
			})
	})
	t.Run("plan", func(t *testing.T) {
		plan.Inspect(nil, func(plan.Scalar) bool { t.Error("fn called for a nil tree"); return true })
		checkOperands(t, ".", "Eval", nil,
			[]any{
				&plan.Col{}, &plan.Const{}, &plan.Bin{}, &plan.Not{}, &plan.Neg{},
				&plan.Case{}, &plan.In{}, &plan.Between{}, &plan.Like{}, &plan.DateAdd{},
				&plan.ExtractYear{}, &plan.Substring{}, &plan.IsNull{}, &plan.ParamRef{},
				&plan.SubPlan{},
			},
			reflect.TypeOf((*plan.Scalar)(nil)).Elem(),
			func(i int) any { return &plan.Const{V: types.Int(int64(i))} },
			func(root any, visit func(any) bool) {
				plan.Inspect(root.(plan.Scalar), func(s plan.Scalar) bool { return visit(s) })
			})
	})
}

// checkOperands runs the operand check over nodes, one zero value of each
// node type the source in dir declares (apart from skip). operand is the
// expression interface; marker makes the i-th marker leaf.
func checkOperands(t *testing.T, dir, method string, skip map[string]bool, nodes []any,
	operand reflect.Type, marker func(i int) any, inspect func(root any, visit func(any) bool)) {
	t.Helper()
	table := map[string]any{}
	for _, n := range nodes {
		table[reflect.TypeOf(n).Elem().Name()] = n
	}
	for _, name := range receivers(t, dir, method) {
		if skip[name] {
			continue
		}
		n, ok := table[name]
		if !ok {
			t.Errorf("node type %s is not in this test's table: add it, and teach Inspect its operands", name)
			continue
		}
		delete(table, name)

		markers := map[any]int{}
		newMarker := func() reflect.Value {
			i := len(markers)
			m := marker(i)
			markers[m] = i
			return reflect.ValueOf(m)
		}
		var fill func(v reflect.Value)
		fill = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				switch {
				case !f.CanSet():
				case f.Type() == operand:
					f.Set(newMarker())
				case f.Kind() == reflect.Slice && (f.Type().Elem() == operand || f.Type().Elem().Kind() == reflect.Struct):
					s := reflect.MakeSlice(f.Type(), 2, 2)
					for j := 0; j < s.Len(); j++ {
						if e := s.Index(j); e.Kind() == reflect.Struct {
							fill(e)
						} else {
							e.Set(newMarker())
						}
					}
					f.Set(s)
				}
			}
		}
		fill(reflect.ValueOf(n).Elem())

		var seen []int
		inspect(n, func(x any) bool {
			if i, ok := markers[x]; ok {
				seen = append(seen, i)
			}
			return true
		})
		inOrder := len(seen) == len(markers)
		for i := range seen {
			inOrder = inOrder && seen[i] == i
		}
		if !inOrder {
			t.Errorf("%s: visited markers %v, want each of 0..%d once, in field order", name, seen, len(markers)-1)
		}
		calls := 0
		inspect(n, func(any) bool { calls++; return false })
		if calls != 1 {
			t.Errorf("%s: fn returned false for the root but was called %d times", name, calls)
		}
	}
	for name := range table {
		t.Errorf("the table lists %s, which %s does not declare with a %s method", name, dir, method)
	}
}

// receivers lists the types in dir's non-test Go files that declare a
// method named method.
func receivers(t *testing.T, dir, method string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != method {
				continue
			}
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			names = append(names, typ.(*ast.Ident).Name)
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s methods found in %s", method, dir)
	}
	return names
}
