package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the golden expectation comments in fixture packages:
// a trailing `// want `regex“ on the offending line.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

func ruleByName(t *testing.T, name string) Rule {
	t.Helper()
	for _, r := range Rules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("rule %q is not registered", name)
	return Rule{}
}

func loadFixture(t *testing.T, fixture, asPath string) *Package {
	t.Helper()
	pkgs, err := LoadDirs([]struct{ Dir, AsPath string }{{filepath.Join("testdata", "src", fixture), asPath}})
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	pkg := pkgs[0]
	for _, e := range pkg.TypeErrors {
		t.Fatalf("fixture %s has type errors: %v", fixture, e)
	}
	return pkg
}

// checkFixture runs one rule over a fixture package and compares the
// findings against its `// want` comments: every want must be matched by
// a finding on its line, and every finding must be covered by a want.
func checkFixture(t *testing.T, ruleName, fixture, asPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, asPath)
	findings := NewModule([]*Package{pkg}).Check(pkg, []Rule{ruleByName(t, ruleName)})

	type lineKey struct {
		file string
		line int
	}
	wants := map[lineKey]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[lineKey{pos.Filename, pos.Line}] = regexp.MustCompile(m[1])
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}

	matched := map[lineKey]bool{}
	for _, fd := range findings {
		k := lineKey{fd.Pos.Filename, fd.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", fd)
			continue
		}
		if !re.MatchString(fd.Message) {
			t.Errorf("finding %q at %s:%d does not match want %q", fd.Message, k.file, k.line, re)
			continue
		}
		matched[k] = true
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("missing finding at %s:%d (want %q)", k.file, k.line, re)
		}
	}
}

func TestNondeterminismRule(t *testing.T) {
	// The fixture is loaded under a deterministic-core import path so the
	// path gate opens.
	checkFixture(t, "nondeterminism", "nondet", "qpp/internal/exec")
}

func TestNondeterminismIgnoresNonCorePackages(t *testing.T) {
	pkg := loadFixture(t, "nondet", "example.com/nondet")
	if findings := NewModule([]*Package{pkg}).Check(pkg, []Rule{ruleByName(t, "nondeterminism")}); len(findings) != 0 {
		t.Fatalf("nondeterminism fired outside the deterministic core: %v", findings)
	}
}

// The hotalloc fixture mirrors nondeterminism's two-load pattern: the
// rule only watches the executor hot-path packages.
func TestHotAllocRule(t *testing.T) {
	checkFixture(t, "hotalloc", "hotalloc", "qpp/internal/exec")
}

// The serving layer is request-hot: the same fixture must trip the rule
// when loaded under the qppserve import paths too.
func TestHotAllocCoversServingPackages(t *testing.T) {
	checkFixture(t, "hotalloc", "hotalloc", "qpp/internal/serve")
	checkFixture(t, "hotalloc", "hotalloc", "qpp/cmd/qppserve")
}

func TestHotAllocIgnoresColdPackages(t *testing.T) {
	pkg := loadFixture(t, "hotalloc", "example.com/hotalloc")
	if findings := NewModule([]*Package{pkg}).Check(pkg, []Rule{ruleByName(t, "hotalloc")}); len(findings) != 0 {
		t.Fatalf("hotalloc fired outside the hot-path packages: %v", findings)
	}
}

func TestMapOrderRule(t *testing.T) { checkFixture(t, "maporder", "maporder", "example.com/maporder") }
func TestFloatEqRule(t *testing.T)  { checkFixture(t, "floateq", "floateq", "example.com/floateq") }
func TestErrDropRule(t *testing.T)  { checkFixture(t, "errdrop", "errdrop", "example.com/errdrop") }

// TestSuppressionComments asserts the escape hatch works for every rule:
// each fixture contains one deliberately-violating, suppressed line, so
// stripping the suppressions must yield strictly more findings.
func TestSuppressionComments(t *testing.T) {
	cases := []struct {
		rule, fixture, asPath string
	}{
		{"nondeterminism", "nondet", "qpp/internal/exec"},
		{"hotalloc", "hotalloc", "qpp/internal/exec"},
		{"maporder", "maporder", "example.com/maporder"},
		{"floateq", "floateq", "example.com/floateq"},
		{"errdrop", "errdrop", "example.com/errdrop"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			pkg := loadFixture(t, tc.fixture, tc.asPath)
			rule := ruleByName(t, tc.rule)

			suppressed := NewModule([]*Package{pkg}).Check(pkg, []Rule{rule})

			// Re-run without the suppression filter.
			var raw []Finding
			pass := &Pass{Pkg: pkg, Mod: NewModule([]*Package{pkg}), rule: rule.Name, findings: &raw}
			rule.Run(pass)

			if len(raw) <= len(suppressed) {
				t.Fatalf("expected suppression comments to hide findings: raw=%d suppressed=%d",
					len(raw), len(suppressed))
			}
		})
	}
}

func TestRuleRegistry(t *testing.T) {
	rules := Rules()
	want := []string{"errdrop", "floateq", "hotalloc", "maporder", "nondeterminism", "unusedignore"}
	var got []string
	for _, r := range rules {
		got = append(got, r.Name)
		if r.Doc == "" {
			t.Errorf("rule %s has no doc", r.Name)
		}
		if r.Run == nil {
			t.Errorf("rule %s has no run function", r.Name)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("registered rules = %v, want %v", got, want)
	}
}

func TestFindingFormat(t *testing.T) {
	pkg := loadFixture(t, "floateq", "example.com/floateq")
	findings := NewModule([]*Package{pkg}).Check(pkg, []Rule{ruleByName(t, "floateq")})
	if len(findings) == 0 {
		t.Fatal("no findings to format")
	}
	s := findings[0].String()
	if !regexp.MustCompile(`^.+\.go:\d+: \[floateq\] .+$`).MatchString(s) {
		t.Fatalf("finding format %q is not `file:line: [rule] message`", s)
	}
	if !strings.Contains(s, "floateq.go") {
		t.Fatalf("finding %q does not name the fixture file", s)
	}
}
