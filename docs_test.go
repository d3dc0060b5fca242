package qperf_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"qpp/internal/analysis"
)

// docPathRE matches the repository paths the prose documents cite:
// commands, scripts, internal packages (optionally one of their .go
// files), examples, and root JSON artifacts (which are the only
// upper-case *.json names the documents use). Globs and brace lists
// (`BENCH_*.json`, `internal/exec/{a,b}.go`) match at most their
// directory prefix: a decision record may list what it removed that way.
var docPathRE = regexp.MustCompile(
	`\b(?:cmd|examples)/[a-z0-9_]+` +
		`|\bscripts/[a-z0-9_]+\.sh` +
		`|\binternal/[a-z0-9_]+(?:/[a-z0-9_]+\.go)?` +
		`|\b[A-Z][A-Za-z0-9_]*\.json\b`)

// TestDocsCiteExistingPaths fails when a document names a command,
// script, package, file or artifact that is not in the checkout — the
// way README.md went on describing a deleted executor option for two
// PRs.
func TestDocsCiteExistingPaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, path := range docPathRE.FindAllString(line, -1) {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d cites %s, which is not in the checkout", doc, i+1, path)
				}
			}
		}
	}
}

// TestReadmeListsEveryExample is the reverse of TestDocsCiteExistingPaths
// for examples: README's runnable-programs block names exactly the
// directories under examples/, so an example cannot be added without a
// line there or deleted with its line left behind.
func TestReadmeListsEveryExample(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sameNames(t, "README.md runnable-programs block",
		submatches(regexp.MustCompile(`(?m)^go run \./examples/([a-z0-9_]+)`), section(t, "README.md", "Runnable programs:", "\n```\n")), dirs)
}

// section returns the part of a file between the first line containing
// from and the next line containing to.
func section(t *testing.T, file, from, to string) string {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(text), from)
	if !ok {
		t.Fatalf("%s has no %q", file, from)
	}
	body, _, ok := strings.Cut(rest, to)
	if !ok {
		t.Fatalf("%s has no %q after %q", file, to, from)
	}
	return body
}

// sameNames fails unless the names a document lists are exactly the ones
// the code accepts.
func sameNames(t *testing.T, where string, documented, accepted []string) {
	t.Helper()
	sort.Strings(documented)
	sort.Strings(accepted)
	if strings.Join(documented, " ") != strings.Join(accepted, " ") {
		t.Errorf("%s lists %v, the code has %v", where, documented, accepted)
	}
}

func submatches(re *regexp.Regexp, text string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestDocsNameExistingRulesAndDrivers fails when the prose names a lint
// rule or a figure driver the code does not have, or leaves one out:
// DESIGN.md §7's rule list and the stage-4 header of scripts/ci.sh
// against the analysis registry, README's driver list against the table
// qppexp selects -exp names from.
func TestDocsNameExistingRulesAndDrivers(t *testing.T) {
	var rules []string
	for _, r := range analysis.Rules() {
		rules = append(rules, r.Name)
	}
	sameNames(t, "DESIGN.md §7 rule list",
		submatches(regexp.MustCompile("(?m)^- `([a-z]+)` — "), section(t, "DESIGN.md", "**Rules.**", "**Suppression.**")), rules)
	sameNames(t, "scripts/ci.sh stage-4 header",
		submatches(regexp.MustCompile("`([a-z]+)`"), section(t, "scripts/ci.sh", "#   4. qpplint", "#   5. ")), rules)

	main, err := os.ReadFile("cmd/qppexp/main.go")
	if err != nil {
		t.Fatal(err)
	}
	drivers := submatches(regexp.MustCompile(`\{"([a-z0-9]+)", run[A-Za-z0-9]+\},`), string(main))
	if len(drivers) == 0 {
		t.Fatal("found no driver table in cmd/qppexp/main.go")
	}
	sameNames(t, "README.md driver list",
		submatches(regexp.MustCompile("(?m)^- `([a-z0-9]+)` — "), section(t, "README.md", "## Reproducing the paper's evaluation", "\n## ")), drivers)
}

// TestUnsafeOnlyInTypes: the value layout is the one place the module
// reasons about memory by hand (internal/types/value.go keeps a string as
// pointer + length). Every other non-test file outside the nested bench/
// module stays within the type system, so checkptr under -race on that one
// package is the whole audit.
func TestUnsafeOnlyInTypes(t *testing.T) {
	var importers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				importers = append(importers, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(importers, " "); got != "internal/types/value.go" {
		t.Errorf(`"unsafe" is imported by [%s], want internal/types/value.go only`, got)
	}
}
