package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under t.TempDir: files maps
// module-relative paths to contents. A go.mod is always written.
func writeModule(t *testing.T, modPath string, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	all := map[string]string{"go.mod": "module " + modPath + "\n\ngo 1.22\n"}
	for name, content := range files {
		all[name] = content
	}
	for name, content := range all {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func pkgByPath(pkgs []*Package, path string) *Package {
	for _, p := range pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// TestLoadModuleBuildTags checks that files excluded by //go:build
// constraints never reach type checking: the excluded file here would
// be a duplicate declaration otherwise.
func TestLoadModuleBuildTags(t *testing.T) {
	root := writeModule(t, "example.com/tags", map[string]string{
		"a.go": "package tags\n\nfunc Impl() int { return 1 }\n",
		"a_other.go": "//go:build someimaginaryplatform\n\npackage tags\n\n" +
			"func Impl() int { return 2 }\n",
	})
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	pkg := pkgByPath(pkgs, "example.com/tags")
	if pkg == nil {
		t.Fatalf("package not loaded: %v", pkgs)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("build-tag-excluded file was type-checked: %v", pkg.TypeErrors)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (the buildable one)", len(pkg.Files))
	}
}

// TestLoadModuleTestFiles checks the three-way split: base files and
// in-package tests merge into one Package, external foo_test packages
// load separately with a .test path suffix.
func TestLoadModuleTestFiles(t *testing.T) {
	root := writeModule(t, "example.com/split", map[string]string{
		"lib.go":          "package split\n\nfunc Lib() int { return 1 }\n",
		"lib_test.go":     "package split\n\nfunc helperInPkg() int { return Lib() }\n",
		"lib_ext_test.go": "package split_test\n\nimport \"example.com/split\"\n\nvar _ = split.Lib\n",
	})
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	base := pkgByPath(pkgs, "example.com/split")
	ext := pkgByPath(pkgs, "example.com/split.test")
	if base == nil || ext == nil {
		t.Fatalf("want base and .test packages, got %v", pkgs)
	}
	if len(base.TypeErrors) != 0 || len(ext.TypeErrors) != 0 {
		t.Fatalf("type errors: base=%v ext=%v", base.TypeErrors, ext.TypeErrors)
	}
	if len(base.Files) != 2 {
		t.Fatalf("base package merged %d files, want 2 (lib.go + in-package test)", len(base.Files))
	}
	// IsTestFile distinguishes the merged test file.
	testFiles := 0
	for _, f := range base.Files {
		if base.IsTestFile(f.Pos()) {
			testFiles++
		}
	}
	if testFiles != 1 {
		t.Fatalf("IsTestFile marked %d of the base files, want 1", testFiles)
	}
}

// TestLoadModuleTypeErrorMidModule checks that one broken package, and
// one that imports a package that does not exist, are reported through
// TypeErrors while the rest of the module still loads and type-checks —
// no panic, no aborted load.
func TestLoadModuleTypeErrorMidModule(t *testing.T) {
	root := writeModule(t, "example.com/mixed", map[string]string{
		"good/good.go":     "package good\n\nfunc Fine() int { return 1 }\n",
		"broken/broken.go": "package broken\n\nfunc Bad() int { return undefinedSymbol }\n",
		"miss/miss.go": "package miss\n\nimport \"example.com/mixed/nosuch\"\n\n" +
			"func Gone() int { return nosuch.Value }\n",
		"user/user.go": "package user\n\nimport \"example.com/mixed/good\"\n\n" +
			"func Use() int { return good.Fine() }\n",
	})
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load must not fail on a type error: %v", err)
	}
	broken := pkgByPath(pkgs, "example.com/mixed/broken")
	if broken == nil {
		t.Fatal("broken package missing from the load result")
	}
	if len(broken.TypeErrors) == 0 {
		t.Fatal("broken package reported no type errors")
	}
	if !strings.Contains(broken.TypeErrors[0].Error(), "undefinedSymbol") {
		t.Fatalf("unexpected error %v", broken.TypeErrors[0])
	}
	miss := pkgByPath(pkgs, "example.com/mixed/miss")
	if miss == nil {
		t.Fatal("package with a missing import absent from the load result")
	}
	if len(miss.TypeErrors) == 0 {
		t.Fatal("import of a missing package reported no type errors")
	}
	for _, path := range []string{"example.com/mixed/good", "example.com/mixed/user"} {
		pkg := pkgByPath(pkgs, path)
		if pkg == nil {
			t.Fatalf("%s missing from the load result", path)
		}
		if len(pkg.TypeErrors) != 0 {
			t.Fatalf("%s has unexpected type errors: %v", path, pkg.TypeErrors)
		}
	}
	// Rules still run over the broken package without panicking.
	if findings := CheckAll(pkgs); findings == nil && len(pkgs) == 0 {
		t.Fatal("unreachable")
	}
}

// TestLoadModuleSkipsTestdata checks the tree walk prunes testdata,
// vendor, hidden and underscore directories.
func TestLoadModuleSkipsTestdata(t *testing.T) {
	root := writeModule(t, "example.com/prune", map[string]string{
		"keep.go":             "package prune\n",
		"testdata/skip.go":    "package broken_on_purpose ...not go...\n",
		"vendor/v/skip.go":    "package alsobroken {{{\n",
		".hidden/skip.go":     "package broken (\n",
		"_underscore/skip.go": "package broken )\n",
	})
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/prune" {
		t.Fatalf("pruning failed, loaded %v", pkgs)
	}
}

// TestLoadDirsCrossPackage checks the fixture mini-module loader: the
// second package imports the first through the shared loader registry.
func TestLoadDirsCrossPackage(t *testing.T) {
	pkgs, err := LoadDirs([]struct{ Dir, AsPath string }{
		{filepath.Join("testdata", "src", "nondetsrc"), "example.com/helpers"},
		{filepath.Join("testdata", "src", "nondetflow"), "qpp/internal/exec"},
	})
	if err != nil {
		t.Fatalf("LoadDirs: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) != 0 {
			t.Fatalf("%s: %v", pkg.Path, pkg.TypeErrors)
		}
	}
}

// TestLoadModuleExportTestBridge loads a module whose external test
// reaches into its package through an export_test.go bridge and passes
// the package's types through a dependent package. go test compiles the
// external test against the package with its in-package test files and
// recompiles the dependent against that variant; the loader must do the
// same, or the bridge is undefined and the dependent's types mismatch.
func TestLoadModuleExportTestBridge(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "bridgemod"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, path := range []string{"example.com/bridge/foo", "example.com/bridge/foo.test", "example.com/bridge/bar"} {
		pkg := pkgByPath(pkgs, path)
		if pkg == nil {
			t.Fatalf("%s missing from the load result", path)
		}
		if len(pkg.TypeErrors) != 0 {
			t.Errorf("%s: type errors %v", path, pkg.TypeErrors)
		}
	}
}

// LoadDirs type-checks several fixture directories as one mini-module:
// each entry maps an import path to a directory, checked in slice order
// with earlier packages importable by later ones. It exists for
// interprocedural fixtures, where a core package must call into a
// helper package to exercise cross-package chains.
func LoadDirs(dirs []struct{ Dir, AsPath string }) ([]*Package, error) {
	l := newLoader()
	var out []*Package
	for _, d := range dirs {
		names, err := filepath.Glob(filepath.Join(d.Dir, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("analysis: no .go files in %s", d.Dir)
		}
		pkg, err := l.check(l, d.AsPath, d.Dir, names)
		if err != nil {
			return nil, err
		}
		l.reg[d.AsPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}
