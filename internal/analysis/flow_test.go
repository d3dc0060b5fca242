package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// matchWants compares findings against the `// want` comments of one
// package, exactly like checkFixture but starting from computed
// findings (so interprocedural module runs can share it).
func matchWants(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], regexp.MustCompile(m[1]))
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("package %s has no want comments", pkg.Path)
	}
	matched := map[lineKey]bool{}
	for _, fd := range findings {
		k := lineKey{fd.Pos.Filename, fd.Pos.Line}
		res, ok := wants[k]
		if !ok {
			t.Errorf("unexpected finding: %s", fd)
			continue
		}
		hit := false
		for _, re := range res {
			if re.MatchString(fd.Message) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("finding %q at %s:%d matches no want on that line", fd.Message, k.file, k.line)
			continue
		}
		matched[k] = true
	}
	for k, res := range wants {
		if !matched[k] {
			t.Errorf("missing finding at %s:%d (want %v)", k.file, k.line, res)
		}
	}
}

// loadFixtureModule loads several fixture directories as one module;
// later entries may import earlier ones.
func loadFixtureModule(t *testing.T, dirs []struct{ Dir, AsPath string }) []*Package {
	t.Helper()
	pkgs, err := LoadDirs(dirs)
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Fatalf("fixture %s has type errors: %v", pkg.Path, e)
		}
	}
	return pkgs
}

// TestNondeterminismInterprocedural loads the helpers package plus a
// core-path package that calls into it, and checks that primitive
// reaches and value taint cross the package boundary with readable
// call chains.
func TestNondeterminismInterprocedural(t *testing.T) {
	pkgs := loadFixtureModule(t, []struct{ Dir, AsPath string }{
		{filepath.Join("testdata", "src", "nondetsrc"), "example.com/helpers"},
		{filepath.Join("testdata", "src", "nondetflow"), "qpp/internal/exec"},
	})
	m := NewModule(pkgs)
	findings := m.Check(pkgs[1], []Rule{ruleByName(t, "nondeterminism")})
	matchWants(t, pkgs[1], findings)

	// The helper package itself is outside the core: no findings there.
	if extra := m.Check(pkgs[0], []Rule{ruleByName(t, "nondeterminism")}); len(extra) != 0 {
		t.Fatalf("nondeterminism fired in the non-core helper package: %v", extra)
	}
}

// TestHotAllocEscapes checks the reachability-gated escape analysis:
// findings in functions called from Next, silence in cold functions
// and on preallocated/reused/non-capturing shapes.
func TestHotAllocEscapes(t *testing.T) {
	checkFixture(t, "hotalloc", "hotalloc2", "qpp/internal/exec")
}

func TestHotAllocEscapesNeedHotPackage(t *testing.T) {
	pkg := loadFixture(t, "hotalloc2", "example.com/hotalloc2")
	if findings := Check(pkg, []Rule{ruleByName(t, "hotalloc")}); len(findings) != 0 {
		t.Fatalf("escape checks fired outside the hot-path packages: %v", findings)
	}
}

// TestHotAllocRowStorage checks the executor's one-allocator rule: every
// make or append-copy of a []types.Value (under either spelling) is a
// finding anywhere in the package, other element types and reuse of an
// existing row are not, and the rule is silent outside the executor.
func TestHotAllocRowStorage(t *testing.T) {
	load := func(asPath string) (*Module, *Package) {
		pkgs := loadFixtureModule(t, []struct{ Dir, AsPath string }{
			{filepath.Join("testdata", "src", "rowalloctypes"), "qpp/internal/types"},
			{filepath.Join("testdata", "src", "rowalloc"), asPath},
		})
		return NewModule(pkgs), pkgs[1]
	}
	m, pkg := load("qpp/internal/exec")
	matchWants(t, pkg, m.Check(pkg, []Rule{ruleByName(t, "hotalloc")}))

	m, pkg = load("qpp/internal/serve")
	if findings := m.Check(pkg, []Rule{ruleByName(t, "hotalloc")}); len(findings) != 0 {
		t.Fatalf("row-storage check fired outside the executor: %v", findings)
	}
}

// TestUnusedIgnore runs the full rule set over the suppress fixture: the
// stale ignore is reported, the live one is not.
func TestUnusedIgnore(t *testing.T) {
	pkg := loadFixture(t, "suppress", "example.com/suppress")
	findings := Check(pkg, nil)
	if len(findings) != 1 {
		t.Fatalf("want exactly the stale-ignore finding, got %v", findings)
	}
	f := findings[0]
	if f.Rule != "unusedignore" || !strings.Contains(f.Message, "suppresses nothing") {
		t.Fatalf("unexpected finding %v", f)
	}

	// A partial run must not report staleness: an ignore for an
	// unselected rule is not stale.
	if got := Check(pkg, []Rule{ruleByName(t, "floateq")}); len(got) != 0 {
		t.Fatalf("partial run reported %v", got)
	}
}

// TestJSONReportRoundTrip encodes a report and decodes it back.
func TestJSONReportRoundTrip(t *testing.T) {
	pkg := loadFixture(t, "floateq", "example.com/floateq")
	findings := Check(pkg, []Rule{ruleByName(t, "floateq")})
	if len(findings) == 0 {
		t.Fatal("no findings to report")
	}
	rep := NewReport("testdata", findings)

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Report
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, rep)
	}
	if back.Total != len(findings) || len(back.Findings) != len(findings) {
		t.Fatalf("report totals: total=%d findings=%d want %d", back.Total, len(back.Findings), len(findings))
	}
	for _, f := range back.Findings {
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q was not relativized", f.File)
		}
		if f.Rule != "floateq" || f.Line <= 0 {
			t.Errorf("malformed finding %+v", f)
		}
	}
	if back.ByRule["floateq"] != len(findings) {
		t.Errorf("by_rule[floateq] = %d, want %d", back.ByRule["floateq"], len(findings))
	}
	if n, ok := back.ByRule["errdrop"]; !ok || n != 0 {
		t.Errorf("clean rules must appear with zero counts, got %v", back.ByRule)
	}

	summary := rep.Summary()
	if !strings.Contains(summary, "floateq:") || !strings.Contains(summary, "clean:") {
		t.Errorf("summary %q lacks per-rule counts", summary)
	}
}
