package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for rule application. A
// directory yields up to two Packages: the base package merged with its
// in-package test files, and (when present) the external `foo_test`
// package.
type Package struct {
	// Path is the import path ("qpp/internal/qpp"); external test
	// packages carry a ".test" suffix.
	Path string
	// Dir is the absolute directory the files came from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking errors. Rules still run on
	// packages with type errors (the AST and partial type info remain
	// usable), but the CLI reports them.
	TypeErrors []error
}

// IsTestFile reports whether the position falls in a *_test.go file.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// loader type-checks an entire module with no tooling beyond the
// standard library: module-internal imports resolve to packages it has
// already checked, everything else falls through to the source importer
// (which type-checks the standard library from GOROOT source).
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	reg  map[string]*types.Package // import path -> checked base package
}

func newLoader(fset *token.FileSet) *loader {
	return &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		reg:  map[string]*types.Package{},
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.reg[path]; ok {
		return p, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// check type-checks one file set as a package, collecting soft errors.
func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	cfg := &types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { errs = append(errs, err) },
	}
	// The returned error is just the first one delivered to cfg.Error,
	// where every error is already collected.
	pkg, _ := cfg.Check(path, l.fset, files, info) //qpplint:ignore errdrop
	return pkg, info, errs
}

// rawPkg is a parsed-but-not-yet-checked directory grouping.
type rawPkg struct {
	path    string
	dir     string
	base    []*ast.File // non-test files
	inTest  []*ast.File // package foo *_test.go files
	extTest []*ast.File // package foo_test files
	imports []string    // module-internal imports of base files
}

// LoadModule parses and type-checks every buildable package under root
// (a module directory containing go.mod). testdata, vendor, hidden and
// underscore-prefixed directories are skipped, mirroring the go tool.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	raws, err := parseTree(fset, root, modPath)
	if err != nil {
		return nil, err
	}

	byPath := map[string]*rawPkg{}
	for _, r := range raws {
		byPath[r.path] = r
	}
	order, err := topoSort(raws, byPath)
	if err != nil {
		return nil, err
	}

	l := newLoader(fset)
	// Phase A: check base packages (no test files) in dependency order and
	// register them so module-internal imports resolve. Import cycles
	// through test files are legal in Go precisely because the imported
	// package never includes the importer's tests; registering base-only
	// packages preserves that property.
	for _, r := range order {
		if len(r.base) == 0 {
			continue
		}
		pkg, _, _ := l.check(r.path, r.base)
		l.reg[r.path] = pkg
	}

	// Phase B: re-check each package with its in-package test files merged
	// (this is the Package rules run on), plus the external test package.
	var out []*Package
	for _, r := range order {
		if len(r.base) > 0 {
			files := append(append([]*ast.File{}, r.base...), r.inTest...)
			pkg, info, errs := l.check(r.path, files)
			out = append(out, &Package{
				Path: r.path, Dir: r.dir, Fset: fset,
				Files: files, Types: pkg, Info: info, TypeErrors: errs,
			})
		}
		if len(r.extTest) > 0 {
			pkg, info, errs := l.check(r.path+".test", r.extTest)
			out = append(out, &Package{
				Path: r.path + ".test", Dir: r.dir, Fset: fset,
				Files: r.extTest, Types: pkg, Info: info, TypeErrors: errs,
			})
		}
	}
	return out, nil
}

// LoadDir parses and type-checks a single directory as one package under
// the given import path, resolving only standard-library imports. It
// exists for fixture packages under testdata, where the import path
// doubles as a way to exercise path-gated rules.
func LoadDir(dir, asPath string) (*Package, error) {
	fset := token.NewFileSet()
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l := newLoader(fset)
	pkg, info, errs := l.check(asPath, files)
	return &Package{
		Path: asPath, Dir: dir, Fset: fset,
		Files: files, Types: pkg, Info: info, TypeErrors: errs,
	}, nil
}

// LoadDirs type-checks several fixture directories as one mini-module:
// each entry maps an import path to a directory, checked in slice order
// with earlier packages importable by later ones. It exists for
// interprocedural fixtures, where a core package must call into a
// helper package to exercise cross-package chains.
func LoadDirs(dirs []struct{ Dir, AsPath string }) ([]*Package, error) {
	fset := token.NewFileSet()
	l := newLoader(fset)
	var out []*Package
	for _, d := range dirs {
		names, err := goFilesIn(d.Dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("analysis: no .go files in %s", d.Dir)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(d.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, errs := l.check(d.AsPath, files)
		l.reg[d.AsPath] = pkg
		out = append(out, &Package{
			Path: d.AsPath, Dir: d.Dir, Fset: fset,
			Files: files, Types: pkg, Info: info, TypeErrors: errs,
		})
	}
	return out, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// parseTree walks the module tree and parses every buildable .go file,
// grouping by directory.
func parseTree(fset *token.FileSet, root, modPath string) ([]*rawPkg, error) {
	var raws []*rawPkg
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		r := &rawPkg{path: importPath, dir: path}
		for _, fname := range names {
			full := filepath.Join(path, fname)
			f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("analysis: %w", err)
			}
			if !buildIncluded(f) {
				continue
			}
			pkgName := f.Name.Name
			switch {
			case strings.HasSuffix(pkgName, "_test"):
				r.extTest = append(r.extTest, f)
			case strings.HasSuffix(fname, "_test.go"):
				r.inTest = append(r.inTest, f)
			default:
				r.base = append(r.base, f)
				r.imports = appendModImports(r.imports, f, modPath)
			}
		}
		if len(r.base)+len(r.inTest)+len(r.extTest) > 0 {
			raws = append(raws, r)
		}
		return nil
	})
	return raws, err
}

// goFilesIn lists the .go files of one directory, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// buildIncluded evaluates a file's //go:build constraint for the host
// platform with no extra tags (so `//go:build race` files are excluded,
// matching a plain `go build`).
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

func appendModImports(dst []string, f *ast.File, modPath string) []string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == modPath || strings.HasPrefix(p, modPath+"/") {
			dst = append(dst, p)
		}
	}
	return dst
}

// topoSort orders packages so every module-internal import of a base
// package precedes its importer. Only base-file imports participate:
// test-only imports may legally form cycles through the package under
// test.
func topoSort(raws []*rawPkg, byPath map[string]*rawPkg) ([]*rawPkg, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*rawPkg
	var visit func(r *rawPkg, chain []string) error
	visit = func(r *rawPkg, chain []string) error {
		switch state[r.path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle: %s", strings.Join(append(chain, r.path), " -> "))
		}
		state[r.path] = visiting
		deps := append([]string{}, r.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if d, ok := byPath[dep]; ok && d != r {
				if err := visit(d, append(chain, r.path)); err != nil {
					return err
				}
			}
		}
		state[r.path] = done
		order = append(order, r)
		return nil
	}
	sorted := append([]*rawPkg{}, raws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].path < sorted[j].path })
	for _, r := range sorted {
		if err := visit(r, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}
