package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	register(Rule{
		Name: "maporder",
		Doc: "flag `range` over a map whose body appends to an outer slice " +
			"(unless that slice is sorted later in the same function), " +
			"accumulates into an outer float, launches goroutines, or sends " +
			"on channels — map iteration order is nondeterministic",
		Run: runMapOrder,
	})
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := collectSortCalls(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapRange(pass, rs) {
					return true
				}
				checkMapRangeBody(pass, rs, sorted)
				return true
			})
		}
	}
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.Pkg.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// collectSortCalls records, per object, the positions where it is
// sorted, which makes an in-loop append to it legal.
func collectSortCalls(pass *Pass, body *ast.BlockStmt) map[types.Object][]token.Pos {
	out := map[types.Object][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := sortedObject(pass.Pkg.Info, call); obj != nil {
				out[obj] = append(out[obj], call.Pos())
			}
		}
		return true
	})
	return out
}

// sortedObject returns the variable a call to a sort/slices function
// sorts (the root of its first argument) — the second half of the
// collect-then-sort idiom — or nil for any other call.
func sortedObject(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	switch pkgName.Imported().Path() {
	case "sort", "slices":
		if root := rootIdent(call.Args[0]); root != nil {
			return info.ObjectOf(root)
		}
	}
	return nil
}

func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, sorted map[types.Object][]token.Pos) {
	info := pass.Pkg.Info
	declaredOutside := func(obj types.Object) bool {
		return obj != nil && !(rs.Pos() <= obj.Pos() && obj.Pos() < rs.End())
	}
	sortedLater := func(obj types.Object) bool {
		for _, p := range sorted[obj] {
			if p >= rs.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		// Nested map ranges get their own walk; descending here would
		// double-report their bodies.
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rs && isMapRange(pass, inner) {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			switch st.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range st.Rhs {
					if i >= len(st.Lhs) || !isAppendCall(info, rhs) {
						continue
					}
					root := rootIdent(st.Lhs[i])
					if root == nil {
						continue
					}
					obj := info.ObjectOf(root)
					if declaredOutside(obj) && !sortedLater(obj) {
						pass.Reportf(st.Pos(),
							"append to %s inside a map range makes element order depend on nondeterministic map iteration; range over sorted keys (or sort %s afterwards)",
							root.Name, root.Name)
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(st.Lhs) != 1 {
					return true
				}
				t := info.TypeOf(st.Lhs[0])
				if t == nil {
					return true
				}
				basic, ok := t.Underlying().(*types.Basic)
				if !ok || basic.Info()&types.IsFloat == 0 {
					return true
				}
				root := rootIdent(st.Lhs[0])
				if root == nil {
					return true
				}
				if obj := info.ObjectOf(root); declaredOutside(obj) {
					pass.Reportf(st.Pos(),
						"float accumulation into %s inside a map range is order-dependent (floating-point addition is not associative); range over sorted keys",
						root.Name)
				}
			}
		case *ast.GoStmt:
			pass.Reportf(st.Pos(),
				"goroutine launched per map entry dispatches work in nondeterministic order; range over sorted keys")
		case *ast.SendStmt:
			pass.Reportf(st.Pos(),
				"channel send per map entry dispatches work in nondeterministic order; range over sorted keys")
		}
		return true
	})
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "append"
	}
	return false
}
