package analysis

import (
	"path/filepath"
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
	seenSelf := false
	for _, pkg := range pkgs {
		if pkg.Path == "qpp/internal/analysis" {
			seenSelf = true
		}
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	if !seenSelf {
		t.Error("module load missed qpp/internal/analysis itself")
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
