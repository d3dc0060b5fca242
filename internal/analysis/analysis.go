// Package analysis is qpplint: a standard-library-only static-analysis
// engine that enforces the repository's determinism, allocation and
// numeric invariants at review time instead of at runtime.
//
// The replay guarantee from the parallel-execution work — a fixed seed
// yields bit-identical figures at every worker count — is otherwise
// protected by a single regression test; one stray wall-clock read or
// unordered map iteration in a hot path breaks it silently until that
// test happens to catch it. Each rule here turns one such invariant into
// a compile-time check over the type-checked AST (go/parser + go/types,
// nothing outside the standard library).
//
// Findings print as `file:line: [rule] message`. A finding can be
// suppressed with a `//qpplint:ignore <rule>` comment on the offending
// line or on the line directly above it; the comment should say why.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// A Finding is one rule violation at one source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical `file:line: [rule] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// A Rule inspects one type-checked package and reports findings through
// the pass.
type Rule struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

var registry []Rule

// register adds a rule at init time. Rule files call it from init().
func register(r Rule) { registry = append(registry, r) }

// Rules returns every registered rule, sorted by name.
func Rules() []Rule {
	out := append([]Rule{}, registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pass carries one package through one rule. Mod gives interprocedural
// rules the whole-module view (call graph, taint summaries); for a
// single-package Check it contains just that package.
type Pass struct {
	Pkg      *Package
	Mod      *Module
	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos unless a suppression comment covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Check runs the given rules (all registered rules when nil) over one
// package and returns the unsuppressed findings sorted by position. The
// package is analyzed as a single-package module; use NewModule +
// Module.Check for cross-package interprocedural context.
func Check(pkg *Package, rules []Rule) []Finding {
	return NewModule([]*Package{pkg}).Check(pkg, rules)
}

// Check runs rules (all registered rules when nil) over one package of
// the module. When the full rule set runs, a `//qpplint:ignore` comment
// that suppressed nothing becomes an `unusedignore` finding itself, so
// stale suppressions cannot accumulate; partial rule runs skip that
// check because an ignore for an unselected rule is not stale.
func (m *Module) Check(pkg *Package, rules []Rule) []Finding {
	full := rules == nil
	if rules == nil {
		rules = Rules()
	}
	var findings []Finding
	for _, r := range rules {
		pass := &Pass{Pkg: pkg, Mod: m, rule: r.Name, findings: &findings}
		r.Run(pass)
	}
	idx := buildSuppressions(pkg)
	findings = filterSuppressed(idx, findings)
	if full {
		findings = append(findings, idx.unusedFindings()...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings
}

// CheckAll runs all registered rules over every package, sharing one
// module so interprocedural summaries are computed once.
func CheckAll(pkgs []*Package) []Finding {
	m := NewModule(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, m.Check(pkg, nil)...)
	}
	return findings
}

var ignoreRe = regexp.MustCompile(`//\s*qpplint:ignore\s+([\w,* ]+)`)

// suppEntry is one `//qpplint:ignore` comment: the rules it names, its
// position, and whether any finding actually matched it.
type suppEntry struct {
	pos   token.Position
	rules map[string]bool
	used  bool
}

// suppressionIndex maps file -> line -> the ignore comments on that
// line ("*" in a comment's rule set suppresses every rule).
type suppressionIndex map[string]map[int][]*suppEntry

func buildSuppressions(pkg *Package) suppressionIndex {
	idx := suppressionIndex{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				entry := &suppEntry{pos: pos, rules: map[string]bool{}}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool {
					return r == ',' || r == ' '
				}) {
					entry.rules[strings.TrimSpace(name)] = true
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int][]*suppEntry{}
					idx[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], entry)
			}
		}
	}
	return idx
}

// suppressed reports whether a `//qpplint:ignore` comment on the
// finding's line or the line above covers its rule, marking the
// matching comment as used.
func (idx suppressionIndex) suppressed(f Finding) bool {
	lines, ok := idx[f.Pos.Filename]
	if !ok {
		return false
	}
	hit := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, e := range lines[line] {
			if e.rules[f.Rule] || e.rules["*"] {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// unusedFindings reports every ignore comment no finding matched. These
// findings are not themselves suppressible: the fix is deleting the
// comment (or repairing its rule name), never stacking another ignore.
func (idx suppressionIndex) unusedFindings() []Finding {
	var out []Finding
	for _, file := range sortedKeys(idx) {
		lines := idx[file]
		for _, line := range sortedKeys(lines) {
			for _, e := range lines[line] {
				if e.used {
					continue
				}
				out = append(out, Finding{
					Pos:  e.pos,
					Rule: "unusedignore",
					Message: fmt.Sprintf(
						"//qpplint:ignore %s suppresses nothing on this or the next line; delete the stale comment or fix the rule name",
						strings.Join(sortedKeys(e.rules), ",")),
				})
			}
		}
	}
	return out
}

func filterSuppressed(idx suppressionIndex, findings []Finding) []Finding {
	out := findings[:0]
	for _, f := range findings {
		if !idx.suppressed(f) {
			out = append(out, f)
		}
	}
	return out
}

func init() {
	register(Rule{
		Name: "unusedignore",
		Doc: "a `//qpplint:ignore` comment that suppresses nothing is itself " +
			"a finding, so stale suppressions cannot accumulate; emitted only " +
			"when the full rule set runs (an ignore for an unselected rule is " +
			"not stale)",
		// The detection runs inside Module.Check after suppression
		// filtering, where comment usage is known; the registration
		// gives the rule its zero count in the JSON report.
		Run: func(*Pass) {},
	})
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (`a` in `a.b[i].c`), or nil when the chain does not start at an
// identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
