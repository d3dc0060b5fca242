package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repoPkgs loads the repository once for every test that checks it.
var repoPkgs = sync.OnceValues(func() ([]*Package, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// TestRepoIsClean lints the repository's own source with every
// registered rule and demands zero findings, so CI catches new
// violations even when nobody runs the qpplint CLI. Fixing the finding
// is preferred; a `//qpplint:ignore <rule>` comment with a reason is the
// escape hatch. Findings are grouped by rule so a noisy regression
// reads as a structured report rather than an interleaved dump.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := repoPkgs()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	// The loaded set covers the linter itself, the nested bench module,
	// an external test package and an in-package test variant.
	for _, path := range []string{"qpp/internal/analysis", "qpp/bench", "qpp/internal/qpp.test"} {
		if pkgByPath(pkgs, path) == nil {
			t.Errorf("module load missed %s", path)
		}
	}
	plan := pkgByPath(pkgs, "qpp/internal/plan")
	if plan == nil || !slices.ContainsFunc(plan.Files, func(f *ast.File) bool { return plan.IsTestFile(f.Pos()) }) {
		t.Error("module load missed qpp/internal/plan's in-package test files")
	}

	findings := CheckAll(pkgs)
	if len(findings) == 0 {
		return
	}
	byRule := map[string][]Finding{}
	for _, f := range findings {
		byRule[f.Rule] = append(byRule[f.Rule], f)
	}
	rules := make([]string, 0, len(byRule))
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	t.Errorf("repo lint failed: %d findings across %d rules", len(findings), len(rules))
	for _, r := range rules {
		t.Errorf("--- %s (%d) ---", r, len(byRule[r]))
		for _, f := range byRule[r] {
			t.Errorf("  %s", f)
		}
	}
}

// TestEveryExportedNameIsRead demands a reader for every exported
// package-level function, method, variable and constant declared in a
// non-test file of the module: a non-test file, or a test file of
// another package. A name nothing reads is dead code, and one that only
// its own package's tests read belongs in that package's _test.go
// files. A method is exempt when it satisfies a method of an interface
// type the module mentions, since it is called through the interface,
// and so are String and Error, which fmt finds by assertion. Exported
// struct fields are out of scope: encoding/json reads them by
// reflection.
func TestEveryExportedNameIsRead(t *testing.T) {
	pkgs, err := repoPkgs()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	read := map[string]bool{}
	for _, pkg := range pkgs {
		home := strings.TrimSuffix(pkg.Path, ".test")
		for _, f := range pkg.Files {
			test := pkg.IsTestFile(f.Pos())
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.Info.Uses[id]
					if obj == nil || obj == self || obj.Pkg() == nil {
						return true
					}
					if key := exportKey(obj); key != "" && (!test || obj.Pkg().Path() != home) {
						read[key] = true
					}
					return true
				})
			}
		}
	}

	ifaces := mentionedInterfaces(pkgs)
	var unread []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f.Pos()) {
				continue
			}
			for _, obj := range exportedDecls(pkg, f) {
				if read[exportKey(obj)] {
					continue
				}
				if fn, ok := obj.(*types.Func); ok && satisfiesInterface(fn, ifaces) {
					continue
				}
				pos := pkg.Fset.Position(obj.Pos())
				unread = append(unread, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, shortFuncName(exportKey(obj))))
			}
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s has no reader but its own package's tests: delete it or move it into a _test.go file", u)
	}
}

// exportKey names an exported function, method, or package-level
// variable or constant the same way in every variant the loader
// type-checks a package as; it is "" for any other object.
func exportKey(obj types.Object) string {
	if !obj.Exported() {
		return ""
	}
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin().FullName()
	case *types.Var, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// exportedDecls lists the exported functions, methods, variables and
// constants f declares at package level.
func exportedDecls(pkg *Package, f *ast.File) []types.Object {
	var out []types.Object
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if obj := pkg.Info.Defs[d.Name]; obj != nil && obj.Exported() {
				out = append(out, obj)
			}
		case *ast.GenDecl:
			if d.Tok != token.VAR && d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if obj := pkg.Info.Defs[name]; obj != nil && obj.Exported() {
						out = append(out, obj)
					}
				}
			}
		}
	}
	return out
}

// methodSigs maps each method of a method set to its signature, spelt
// with full package paths and no parameter names so that the variants
// of one type, and an implementation and its interface, agree.
type methodSigs map[string]string

func sigsOf(ms *types.MethodSet) methodSigs {
	out := methodSigs{}
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		out[fn.Name()] = sigString(fn.Type().(*types.Signature))
	}
	return out
}

func sigString(sig *types.Signature) string {
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}

// mentionedInterfaces collects the method sets of the interface types
// the module's expressions have or reach through signatures, composite
// types and struct fields (http.Server's Handler, types.Config's
// Importer), indexed by method name.
func mentionedInterfaces(pkgs []*Package) map[string][]methodSigs {
	out := map[string][]methodSigs{}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Interface:
			if !t.IsMethodSet() || t.NumMethods() == 0 {
				return
			}
			sigs := sigsOf(types.NewMethodSet(t))
			for i := 0; i < t.NumMethods(); i++ {
				out[t.Method(i).Name()] = append(out[t.Method(i).Name()], sigs)
				walk(t.Method(i).Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			walk(tv.Type)
		}
	}
	return out
}

// satisfiesInterface reports whether method fn is called through an
// interface: String or Error, or a method of an interface whose every
// method the receiver's pointer method set has.
func satisfiesInterface(fn *types.Func, ifaces map[string][]methodSigs) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if (fn.Name() == "String" || fn.Name() == "Error") && sigString(sig) == "func() string" {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	have := sigsOf(types.NewMethodSet(types.NewPointer(recv)))
	for _, iface := range ifaces[fn.Name()] {
		if iface[fn.Name()] != have[fn.Name()] {
			continue
		}
		all := true
		for name, s := range iface {
			all = all && have[name] == s
		}
		if all {
			return true
		}
	}
	return false
}

// BenchmarkLoadModule times the module load BenchmarkAnalyzeRepo keeps
// outside its timer: go list, then parsing and type-checking every
// package the rules run on. It is declared first so that it runs first
// and pays the process's standard-library export-data lookups, which
// later loads find cached.
func BenchmarkLoadModule(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := LoadModule(root); err != nil {
			b.Fatalf("loading module: %v", err)
		}
	}
}

// BenchmarkAnalyzeRepo times the full-module analysis — call graph
// summaries plus every rule — over the repository itself. The
// load (parse + type-check) happens once outside the timer; the loop
// measures the cost a CI lint run pays after loading.
func BenchmarkAnalyzeRepo(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := CheckAll(pkgs); len(findings) != 0 {
			b.Fatalf("repo not clean: %d findings", len(findings))
		}
	}
}
