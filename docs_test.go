package qperf_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qpp"
	"qpp/internal/analysis"
	"qpp/internal/mlearn"
	"qpp/internal/plancache"
	iqpp "qpp/internal/qpp"
	"qpp/internal/serve"
	"qpp/internal/workload"
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

// TestDesignQuotesNoBenchmarkValues fails when DESIGN.md puts a number
// after the name of a metric BENCHMARK.json declares (say "`tail_ms`
// 0.36" or "plancache.rebind_us is 38"). Such a value goes stale with the
// next change that moves it; measured values belong in bench/README.md
// and CHANGES.md, where each carries the run it came from.
func TestDesignQuotesNoBenchmarkValues(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, regexp.QuoteMeta(m.Name))
	}
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	// The name, then at most separators and one linking word before the
	// number; the match may span a line break.
	re := regexp.MustCompile("(?:^|[^\\w.])(" + strings.Join(names, "|") + ")`?" +
		`[\s:=≈~(]*(?:(?:is|was|of|at|from|to|by)\s+)?[−+-]?\d`)
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range re.FindAllSubmatchIndex(text, -1) {
		line := 1 + strings.Count(string(text[:m[2]]), "\n")
		t.Errorf("DESIGN.md:%d quotes a value of %s: %q", line, text[m[2]:m[3]], text[m[0]:m[1]])
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

// TestDocsListDeterministicCore fails when DESIGN.md §7's brace list of
// deterministic-core packages drifts from analysis.DeterministicCore, the
// list the nondeterminism rule actually enforces.
func TestDocsListDeterministicCore(t *testing.T) {
	rule := section(t, "DESIGN.md", "- `nondeterminism` — ", "- `maporder` — ")
	m := regexp.MustCompile("`internal/\\{([a-z,]+)\\}`").FindStringSubmatch(rule)
	if m == nil {
		t.Fatal("DESIGN.md §7's nondeterminism bullet has no `internal/{...}` package list")
	}
	var core []string
	for _, p := range analysis.DeterministicCore {
		core = append(core, strings.TrimPrefix(p, "qpp/internal/"))
	}
	sameNames(t, "DESIGN.md §7 deterministic core", strings.Split(m[1], ","), core)
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

// TestAssemblyOnlyInMlearn: the SMO solver's row passes are the module's
// one hand-written assembly (DESIGN.md §6). Outside the nested bench/
// module no other .s file may appear: go vet's asmdecl checks that one
// file's frame offsets against its Go declarations, and
// TestSMOKernelsStayInBounds its memory reach.
func TestAssemblyOnlyInMlearn(t *testing.T) {
	var asm []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".s") {
			asm = append(asm, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(asm, " "); got != "internal/mlearn/smo_amd64.s" {
		t.Errorf("assembly files [%s], want internal/mlearn/smo_amd64.s only", got)
	}
}

// TestPlanCacheNeverExecutes: the serving plan cache chooses among its
// candidates by the optimizer's cost model (DESIGN.md §15), so none of
// its non-test files may import the executor, the virtual device or the
// learning library.
func TestPlanCacheNeverExecutes(t *testing.T) {
	deny := map[string]bool{"qpp/internal/exec": true, "qpp/internal/vclock": true, "qpp/internal/mlearn": true}
	files, err := filepath.Glob("internal/plancache/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files in internal/plancache")
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); deny[p] {
				t.Errorf("%s imports %s", filepath.ToSlash(path), p)
			}
		}
	}
}

// TestConfigSurface pins every settable field of the configuration
// structs. A setting exists only when two non-test callers set different
// values or a test uses it as a seam (DESIGN.md §11): adding one means
// editing this list, and a value nothing varies is a constant.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		config any
		fields string
	}{
		{mlearn.FeatureSelectionConfig{}, "Folds Seed"},
		{iqpp.PlanModelConfig{}, "Kind FeatureSelection Folds Seed C Nu LogTarget Memo"},
		{iqpp.HybridConfig{}, "Strategy TargetError MaxIters EvalRecs Memo"},
		{serve.Options{}, "Now Reload"},
		{workload.Config{}, "ScaleFactor Templates PerTemplate Seed TimeLimit Parallelism Observe"},
		{qperf.EngineConfig{}, "ScaleFactor Seed"},
		{plancache.Config{}, "LabelSeed"},
	} {
		rt := reflect.TypeOf(c.config)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if strings.Join(got, " ") != c.fields {
			t.Errorf("%s has fields %v, the list says %s", rt, got, c.fields)
		}
	}
}

// flagDefRE matches the flag package's defining functions, as package
// functions or FlagSet methods: the name is the first argument, or the
// second for the *Var forms.
var flagDefRE = regexp.MustCompile(`^(Bool|Duration|Float64|Func|Int|Int64|String|Uint|Uint64)(Var)?$`)

// TestFlagSurface is TestConfigSurface for the command lines: it pins
// every flag each cmd/*/main.go defines, so a flag nobody passes cannot
// accumulate unnoticed and removing one means editing this list.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"qppexp":     "exp quick large-sf small-sf per-template seed parallel metrics trace cpuprofile memprofile",
		"qppexplain": "sf seed template query analyze trace",
		"qpplint":    "json",
		"qppserve":   "addr models sf seed per-template strategy parallel",
		"qpptrain":   "sf per-template test-per-template seed out load strategy parallel cpuprofile memprofile",
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var flags []string
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefRE.MatchString(sel.Sel.Name) {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					flags = append(flags, name)
				}
			}
			return true
		})
		cmd := filepath.Base(filepath.Dir(path))
		cmds = append(cmds, cmd)
		sameNames(t, path+" flags", strings.Fields(want[cmd]), flags)
	}
	if len(cmds) != len(want) {
		t.Errorf("cmd/ has commands %v, the list has %d", cmds, len(want))
	}
}
