package analysis

import (
	"go/ast"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestRepoIsClean lints the repository's own source with every
// registered rule and demands zero findings, so CI catches new
// violations even when nobody runs the qpplint CLI. Fixing the finding
// is preferred; a `//qpplint:ignore <rule>` comment with a reason is the
// escape hatch. Findings are grouped by rule so a noisy regression
// reads as a structured report rather than an interleaved dump.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
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
