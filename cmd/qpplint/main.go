// Command qpplint runs the repository's static-analysis rules
// (internal/analysis) over the module and prints findings as
//
//	file:line: [rule] message
//
// It is built on the standard library's go/parser + go/types only, so
// it needs no tool dependencies and runs anywhere the repo builds.
//
// Usage:
//
//	qpplint                      # lint the whole module (same as ./...)
//	qpplint ./...                # ditto
//	qpplint ./internal/qpp ./internal/mlearn
//	qpplint -rules maporder,hotalloc ./...    # only these rules
//	qpplint -rules -nondeterminism ./...      # everything but this rule
//	qpplint -json ./... > LINT.json           # machine-readable report
//	qpplint -list                # describe the registered rules
//
// Exit status: 0 when clean, 1 when findings were reported, 2 when the
// module failed to load or type-check (or the flags were invalid).
//
// Suppress an individual finding with a `//qpplint:ignore <rule>`
// comment on the offending line or the line above it; the comment should
// say why the invariant does not apply. On full runs, an ignore comment
// that suppresses nothing is itself reported (rule unusedignore).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"qpp/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the registered rules and exit")
	asJSON := flag.Bool("json", false, "emit the findings as a JSON report on stdout")
	ruleSpec := flag.String("rules", "", "comma-separated rules to run; prefix a name with '-' to exclude it instead")
	flag.Parse()

	if *list {
		for _, r := range analysis.Rules() {
			fmt.Printf("%-16s %s\n", r.Name, r.Doc)
		}
		return
	}

	rules, err := resolveRules(*ruleSpec)
	if err != nil {
		fatal(err)
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := selectPackages(pkgs, patterns, root)
	if len(selected) == 0 {
		fatal(fmt.Errorf("no packages match %v", patterns))
	}

	hardErr := false
	for _, pkg := range selected {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "qpplint: %s: %v\n", pkg.Path, terr)
			hardErr = true
		}
	}
	if hardErr {
		os.Exit(2)
	}

	// The module always includes every loaded package so interprocedural
	// summaries (call chains, lock orders) see the whole call graph even
	// when reporting is restricted to the selected packages.
	mod := analysis.NewModule(pkgs)
	var findings []analysis.Finding
	for _, pkg := range selected {
		findings = append(findings, mod.Check(pkg, rules)...)
	}

	report := analysis.NewReport(root, rules, findings)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	fmt.Fprintf(os.Stderr, "qpplint: %s\n", report.Summary())
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qpplint: %v\n", err)
	os.Exit(2)
}

// resolveRules parses the -rules flag: a comma-separated list of rule
// names selects exactly those; names prefixed with '-' run everything
// except them. Mixing both forms or naming an unknown rule is an error.
// An empty spec returns nil, meaning the full registry.
func resolveRules(spec string) ([]analysis.Rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	byName := map[string]analysis.Rule{}
	for _, r := range analysis.Rules() {
		byName[r.Name] = r
	}
	include := map[string]bool{}
	exclude := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		neg := strings.HasPrefix(name, "-")
		name = strings.TrimPrefix(name, "-")
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("unknown rule %q (use -list to see the registry)", name)
		}
		if neg {
			exclude[name] = true
		} else {
			include[name] = true
		}
	}
	if len(include) > 0 && len(exclude) > 0 {
		return nil, fmt.Errorf("-rules cannot mix selections and '-' exclusions")
	}
	var out []analysis.Rule
	for _, r := range analysis.Rules() {
		if len(include) > 0 && !include[r.Name] {
			continue
		}
		if exclude[r.Name] {
			continue
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules %q excludes every registered rule", spec)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// selectPackages filters loaded packages by go-style patterns: `./...`,
// `./internal/qpp`, a bare import path, or a `path/...` wildcard.
// External test packages follow their base package's pattern match.
func selectPackages(pkgs []*analysis.Package, patterns []string, root string) []*analysis.Package {
	var out []*analysis.Package
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		base := strings.TrimSuffix(pkg.Path, ".test")
		for _, pat := range patterns {
			if matchPattern(pat, rel, base) {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

func matchPattern(pat, rel, importPath string) bool {
	pat = strings.TrimPrefix(pat, "./")
	if pat == "..." {
		return true
	}
	if pat == "." || pat == "" {
		return rel == "."
	}
	if wild, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == wild || strings.HasPrefix(rel, wild+"/") ||
			importPath == wild || strings.HasPrefix(importPath, wild+"/")
	}
	return rel == pat || importPath == pat
}
