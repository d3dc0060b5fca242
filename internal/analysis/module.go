package analysis

// Module-wide analysis state. Interprocedural passes (nondeterminism
// taint, hot-path reachability) need to see every package at once: a
// wall-clock read two calls deep only matters when some
// deterministic-core function can reach it. A Module bundles the
// loaded packages with a function index, a static call graph, and
// memoized per-pass summaries so that running all rules over N packages
// computes each module-level analysis exactly once.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncInfo is one function or method declaration somewhere in the
// module, keyed by its types.Func full name (stable across the
// base/test re-type-checks the loader performs).
type FuncInfo struct {
	Name string // (*qpp/internal/obs.Registry).Counter, qpp/internal/exec.Run, ...
	Decl *ast.FuncDecl
	Pkg  *Package
}

// shortName renders a function name for diagnostics: the module path
// noise is stripped so chains read `prof.Start -> time.Now`.
func shortFuncName(full string) string {
	s := strings.ReplaceAll(full, "qpp/internal/", "")
	s = strings.ReplaceAll(s, "qpp/cmd/", "")
	return strings.ReplaceAll(s, "qpp/", "")
}

// Module is a set of type-checked packages analyzed as one unit.
type Module struct {
	Pkgs []*Package

	funcs     map[string]*FuncInfo
	funcNames []string // sorted index keys, for deterministic iteration

	// Memoized pass state, built on first use.
	nondet       map[string]*nondetSummary
	nondetOK     bool
	hotReach     map[string]bool
	hotOK        bool
	predictReach map[string]bool
	predictOK    bool
}

// NewModule indexes every function declaration in the given packages.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		funcs: map[string]*FuncInfo{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &FuncInfo{Name: obj.FullName(), Decl: fd, Pkg: pkg}
				if _, dup := m.funcs[info.Name]; !dup {
					m.funcs[info.Name] = info
				}
			}
		}
	}
	m.funcNames = make([]string, 0, len(m.funcs))
	for name := range m.funcs {
		m.funcNames = append(m.funcNames, name)
	}
	sort.Strings(m.funcNames)
	return m
}

// callee resolves a call expression to the module function it invokes,
// or nil for calls into the standard library, interface-dispatched
// methods, function values, and builtins. pkg supplies the type info of
// the calling side.
func (m *Module) callee(pkg *Package, call *ast.CallExpr) *FuncInfo {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return m.funcs[fn.FullName()]
}

// calleesOf lists the distinct module functions a declaration's body
// statically calls (function literals included), sorted by name.
func (m *Module) calleesOf(info *FuncInfo) []*FuncInfo {
	seen := map[string]*FuncInfo{}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c := m.callee(info.Pkg, call); c != nil {
			seen[c.Name] = c
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*FuncInfo, len(names))
	for i, name := range names {
		out[i] = seen[name]
	}
	return out
}
