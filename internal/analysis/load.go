package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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

// loader type-checks module packages from source. An import resolves to
// a package it has already checked, registered under the import path
// `go list` gives it ("qpp/internal/plan [qpp/internal/plan.test]" for
// a test variant), and otherwise to the standard library's export data.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	exports map[string]string // standard import path -> export data file
	reg     map[string]*types.Package
	parsed  map[string]*ast.File // file name -> AST, shared by a package's variants
}

func newLoader() *loader {
	l := &loader{
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		reg:     map[string]*types.Package{},
		parsed:  map[string]*ast.File{},
	}
	// LoadModule lists every standard package's export data up front; a
	// path it did not list (a fixture's import) is listed on its own.
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if _, ok := l.exports[path]; !ok {
			if err := l.listExports(".", []string{path}); err != nil {
				return nil, err
			}
		}
		return os.Open(l.exports[path])
	})
	return l
}

// listExports runs one `go list -export` in dir over the named standard
// packages and records where each one's export data is.
func (l *loader) listExports(dir string, paths []string) error {
	if len(paths) == 0 {
		return nil
	}
	list, err := runGoList(dir, append([]string{"-export", "-json=ImportPath,Export"}, paths...))
	if err != nil {
		return err
	}
	for _, lp := range list {
		l.exports[lp.ImportPath] = lp.Export
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.reg[path]; ok {
		return p, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses (once a file) and type-checks the named files of dir as
// the package path, resolving imports through imp and collecting soft
// errors.
func (l *loader) check(imp types.Importer, path, dir string, names []string) (*Package, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, ok := l.parsed[name]
		if !ok {
			var err error
			if f, err = parser.ParseFile(l.fset, name, nil, parser.ParseComments); err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			l.parsed[name] = f
		}
		files[i] = f
	}
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
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	// The returned error is just the first one delivered to cfg.Error,
	// where every error is already collected.
	pkg, _ := cfg.Check(path, l.fset, files, info) //qpplint:ignore errdrop
	return &Package{
		Path: path, Dir: dir, Fset: l.fset,
		Files: files, Types: pkg, Info: info, TypeErrors: errs,
	}, nil
}

// listed is one package as `go list -json` reports it.
type listed struct {
	ImportPath, Dir, ForTest, Export string
	GoFiles, TestGoFiles             []string
	ImportMap                        map[string]string
	DepOnly, Standard                bool
}

// LoadModule type-checks every package `go test ./...` builds in the
// module at root and in each module nested under it, as `go list -deps
// -test` lists them: the files after build constraints, in dependency
// order, with test variants. Rules run on each package's in-package test
// variant when it has one (else the package itself) and on each external
// test package, under the path "<pkg>.test". Packages recompiled for
// another package's test are checked so that external tests see the
// variant's types, but not returned.
func LoadModule(root string) ([]*Package, error) {
	mods, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	var out []*Package
	for _, mod := range mods {
		list, err := runGoList(mod, []string{"-e", "-deps", "-test",
			"-json=ImportPath,Dir,ForTest,GoFiles,TestGoFiles,ImportMap,DepOnly,Standard", "./..."})
		if err != nil {
			return nil, err
		}
		var std []string
		for _, lp := range list {
			if lp.Standard && l.exports[lp.ImportPath] == "" {
				std = append(std, lp.ImportPath)
			}
		}
		if err := l.listExports(mod, std); err != nil {
			return nil, err
		}
		for _, lp := range list {
			testMain := lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test")
			if lp.Standard || len(lp.GoFiles) == 0 || testMain || l.reg[lp.ImportPath] != nil {
				continue
			}
			path, _, _ := strings.Cut(lp.ImportPath, " ")
			var keep bool
			switch {
			case lp.ForTest == "":
				keep = len(lp.TestGoFiles) == 0
			case path == lp.ForTest:
				keep = true
			case path == lp.ForTest+"_test":
				path, keep = lp.ForTest+".test", true
			}
			imp := importerFunc(func(p string) (*types.Package, error) {
				if m, ok := lp.ImportMap[p]; ok {
					p = m
				}
				return l.Import(p)
			})
			names := make([]string, len(lp.GoFiles))
			for i, name := range lp.GoFiles {
				names[i] = filepath.Join(lp.Dir, name)
			}
			pkg, err := l.check(imp, path, lp.Dir, names)
			if err != nil {
				return nil, err
			}
			l.reg[lp.ImportPath] = pkg.Types
			if keep && !lp.DepOnly {
				out = append(out, pkg)
			}
		}
	}
	return out, nil
}

// runGoList runs `go list` with args in dir and decodes its -json
// stream.
func runGoList(dir string, args []string) ([]*listed, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var list []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listed)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("analysis: go list in %s: %w", dir, err)
		}
		list = append(list, lp)
	}
	return list, nil
}

// moduleDirs lists root and every module directory nested under it that
// the go command would not ignore (testdata, vendor, hidden and
// underscore-prefixed directories), outer modules first.
func moduleDirs(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
