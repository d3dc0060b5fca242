package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DeterministicCore lists the packages under the replay guarantee: for a
// fixed seed, serial and parallel runs must produce bit-identical
// figures. Inside them, wall-clock reads and the process-global
// math/rand source are forbidden outside test files — time comes from
// the injected vclock, randomness from seeds threaded through configs.
// The serving layer joins through its snapshot path only (snapshot.go:
// training, loading and content-hashing must be reproducible); the
// request path legitimately reads the wall clock for latency metrics.
var DeterministicCore = []string{
	"qpp/internal/vclock",
	"qpp/internal/sketch",
	"qpp/internal/exec",
	"qpp/internal/obs",
	"qpp/internal/workload",
	"qpp/internal/experiments",
	"qpp/internal/mlearn",
	"qpp/internal/qpp",
	// The plan cache's Build must be replayable (same workload, same
	// candidate sets and selector) and its Plan must never consult wall
	// clock or global randomness: cache decisions are part of the
	// deterministic serving contract.
	"qpp/internal/plancache",
}

// timeDeny is the wall-clock surface of package time. Pure conversions
// and constructors (time.Duration, time.Unix, time.Date) stay legal.
var timeDeny = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// randAllow is the seedable surface of math/rand; everything else on the
// package (Intn, Float64, Perm, Shuffle, Seed, ...) draws from the
// process-global source, whose state depends on call interleaving.
var randAllow = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func init() {
	register(Rule{
		Name: "nondeterminism",
		Doc: "forbid wall-clock reads (time.Now/Since/...) and global math/rand " +
			"functions in the deterministic-core packages, directly or through " +
			"any module call chain (the chain is printed), and flag core " +
			"functions returning values that depend on map iteration order; " +
			"use the injected vclock, seeded rand.New(rand.NewSource(seed)), " +
			"and sorted iteration instead",
		Run: runNondeterminism,
	})
}

// isCoreFile reports whether a file of a package is under the replay
// guarantee: every file of a DeterministicCore package, plus the serve
// snapshot path.
func isCoreFile(pkg *Package, filename string) bool {
	path := strings.TrimSuffix(pkg.Path, ".test")
	for _, p := range DeterministicCore {
		if path == p {
			return true
		}
	}
	return path == "qpp/internal/serve" && filepath.Base(filename) == "snapshot.go"
}

// mapOrderSource is the `what` of taint introduced by ranging a map.
const mapOrderSource = "map iteration order"

// nondetSource describes where nondeterminism enters: the primitive
// (time.Now, math/rand.Intn, map iteration order) and the module call
// chain leading to it (outermost callee first, empty for direct use).
type nondetSource struct {
	what  string
	chain []string
}

func (s *nondetSource) chainString(last string) string {
	parts := make([]string, 0, len(s.chain)+1)
	for _, f := range s.chain {
		parts = append(parts, shortFuncName(f))
	}
	parts = append(parts, last)
	return strings.Join(parts, " -> ")
}

// lessSource orders sources deterministically: shorter chains first so
// diagnostics name the most direct route to the primitive.
func lessSource(a, b *nondetSource) bool {
	if len(a.chain) != len(b.chain) {
		return len(a.chain) < len(b.chain)
	}
	as := strings.Join(a.chain, "|") + "|" + a.what
	bs := strings.Join(b.chain, "|") + "|" + b.what
	return as < bs
}

func minSource(a, b *nondetSource) *nondetSource {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case lessSource(b, a):
		return b
	}
	return a
}

// nondetSummary is the interprocedural fact base for one function.
type nondetSummary struct {
	// reaches is non-nil when the function's call tree invokes a
	// wall-clock or global-rand primitive (value used or not).
	reaches *nondetSource
	// taints is non-nil when the function's return value derives from a
	// nondeterministic primitive or from map iteration order.
	taints *nondetSource
}

const maxChainLen = 8

// extendChain prefixes a callee onto its source's chain, truncating
// cycles so recursive call graphs cannot grow chains without bound.
func extendChain(callee string, src *nondetSource) *nondetSource {
	for _, f := range src.chain {
		if f == callee {
			return &nondetSource{what: src.what, chain: []string{callee}}
		}
	}
	chain := append([]string{callee}, src.chain...)
	if len(chain) > maxChainLen {
		chain = chain[:maxChainLen]
	}
	return &nondetSource{what: src.what, chain: chain}
}

// directSource recognizes a call expression that is itself a
// nondeterministic primitive, returning its description.
func directSource(pkg *Package, call *ast.CallExpr) *nondetSource {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pkgName, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	switch pkgName.Imported().Path() {
	case "time":
		if timeDeny[name] {
			return &nondetSource{what: "time." + name}
		}
	case "math/rand", "math/rand/v2":
		if !randAllow[name] && !strings.HasPrefix(name, "_") {
			return &nondetSource{what: "math/rand." + name}
		}
	}
	return nil
}

// nondetSummaries computes, by fixpoint over the call graph, which
// module functions reach a nondeterministic primitive and which return
// nondeterministic values. Memoized per module.
func (m *Module) nondetSummaries() map[string]*nondetSummary {
	if m.nondetOK {
		return m.nondet
	}
	sums := map[string]*nondetSummary{}
	for _, name := range m.funcNames {
		sums[name] = &nondetSummary{}
	}
	for sweep := 0; sweep < maxFixpointSweeps; sweep++ {
		changed := false
		for _, name := range m.funcNames {
			info := m.funcs[name]
			sum := sums[name]

			reaches := m.scanReaches(info, sums)
			if (sum.reaches == nil) != (reaches == nil) {
				changed = true
			}
			sum.reaches = reaches

			taints := m.scanResultTaint(info, sums)
			if (sum.taints == nil) != (taints == nil) {
				changed = true
			}
			sum.taints = taints
		}
		if !changed {
			break
		}
	}
	m.nondet = sums
	m.nondetOK = true
	return sums
}

// scanReaches finds the best source a function's call tree can invoke:
// a direct primitive call anywhere in the body (function literals
// included) or a module callee whose summary already reaches one.
func (m *Module) scanReaches(info *FuncInfo, sums map[string]*nondetSummary) *nondetSource {
	var best *nondetSource
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if src := directSource(info.Pkg, call); src != nil {
			best = minSource(best, src)
			return true
		}
		if c := m.callee(info.Pkg, call); c != nil {
			if s := sums[c.Name]; s != nil && s.reaches != nil {
				best = minSource(best, extendChain(c.Name, s.reaches))
			}
		}
		return true
	})
	return best
}

// taintState is the flow-sensitive taint map: variables currently
// holding nondeterministic values, each with its provenance.
type taintState map[types.Object]*nondetSource

func taintJoin(a, b taintState) taintState {
	out := make(taintState, len(a)+len(b))
	for o, s := range a {
		out[o] = s
	}
	for o, s := range b {
		out[o] = minSource(out[o], s)
	}
	return out
}

func taintEqual(a, b taintState) bool {
	if len(a) != len(b) {
		return false
	}
	for o, s := range a {
		t, ok := b[o]
		if !ok || s.what != t.what || len(s.chain) != len(t.chain) {
			return false
		}
		for i := range s.chain {
			if s.chain[i] != t.chain[i] {
				return false
			}
		}
	}
	return true
}

// taintAnalysis runs the value-taint dataflow over one function.
type taintAnalysis struct {
	m    *Module
	pkg  *Package
	sums map[string]*nondetSummary
	// resultTaint accumulates the best source reaching any return.
	resultTaint *nondetSource
	// results holds the named result objects for bare returns.
	results []types.Object
}

// mightTaint is a cheap syntactic filter: functions with no map range
// and no call expressions cannot produce a tainted result, so the CFG
// dataflow is skipped for them.
func mightTaint(info *FuncInfo) bool {
	found := false
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.RangeStmt, *ast.CallExpr:
			found = true
		}
		return !found
	})
	return found
}

// scanResultTaint decides whether a function returns a nondeterministic
// value, running the flow-sensitive taint analysis over its CFG.
func (m *Module) scanResultTaint(info *FuncInfo, sums map[string]*nondetSummary) *nondetSource {
	if !mightTaint(info) {
		return nil
	}
	ta := &taintAnalysis{m: m, pkg: info.Pkg, sums: sums}
	if res := info.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := info.Pkg.Info.Defs[name]; obj != nil {
					ta.results = append(ta.results, obj)
				}
			}
		}
	}
	d := &dataflow[taintState]{
		cfg:      m.cfgOf(info.Decl.Body),
		entry:    taintState{},
		join:     taintJoin,
		equal:    taintEqual,
		transfer: ta.transfer,
	}
	d.replay(d.run(), nil)
	return ta.resultTaint
}

func (ta *taintAnalysis) transfer(n ast.Node, s taintState) taintState {
	switch n := n.(type) {
	case *ast.RangeStmt:
		return ta.transferRange(n, s)
	case *ast.AssignStmt:
		return ta.transferAssign(n, s)
	case *ast.DeclStmt:
		return ta.transferDecl(n, s)
	case *ast.ExprStmt:
		return ta.transferSanitize(n, s)
	case *ast.ReturnStmt:
		ta.noteReturn(n, s)
	}
	return s
}

// transferRange taints the key/value variables of a map range with the
// iteration-order source, and propagates container taint into element
// variables for any range.
func (ta *taintAnalysis) transferRange(rs *ast.RangeStmt, s taintState) taintState {
	var src *nondetSource
	if t := ta.pkg.Info.TypeOf(rs.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			src = &nondetSource{what: mapOrderSource}
		}
	}
	if src == nil {
		src = ta.exprTaint(rs.X, s)
	}
	if src == nil {
		return s
	}
	out := cloneTaint(s)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := ta.pkg.Info.ObjectOf(id); obj != nil {
			out[obj] = minSource(out[obj], src)
		}
	}
	return out
}

func (ta *taintAnalysis) transferAssign(as *ast.AssignStmt, s taintState) taintState {
	// Compound assignments (+=, ...) keep the accumulator's existing
	// taint even when the RHS is clean; only plain =/:= overwrite.
	overwrite := as.Tok == token.ASSIGN || as.Tok == token.DEFINE
	out := cloneTaint(s)
	set := func(lhs ast.Expr, src *nondetSource) {
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		if isIdent && id.Name == "_" {
			return
		}
		// Storing under a map key is commutative: building a map while
		// ranging another map yields the same final map in any iteration
		// order, so order-taint does not flow into the container. (Taint
		// from a clock or rand value still does — the stored values
		// themselves differ between runs.)
		if src != nil && src.what == mapOrderSource {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if t := ta.pkg.Info.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return
					}
				}
			}
		}
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		obj := ta.pkg.Info.ObjectOf(root)
		if obj == nil {
			return
		}
		switch {
		case src != nil:
			out[obj] = minSource(out[obj], src)
		case isIdent && overwrite:
			// Strong update: a plain identifier overwritten with a
			// deterministic value is clean again.
			delete(out, obj)
		}
	}
	switch {
	case len(as.Rhs) == len(as.Lhs):
		for i := range as.Lhs {
			set(as.Lhs[i], ta.exprTaint(as.Rhs[i], s))
		}
	case len(as.Rhs) == 1:
		src := ta.exprTaint(as.Rhs[0], s)
		for _, lhs := range as.Lhs {
			set(lhs, src)
		}
	}
	return out
}

func (ta *taintAnalysis) transferDecl(ds *ast.DeclStmt, s taintState) taintState {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return s
	}
	out := s
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			if src := ta.exprTaint(vs.Values[i], s); src != nil {
				if obj := ta.pkg.Info.Defs[name]; obj != nil {
					if len(out) == len(s) {
						out = cloneTaint(s)
					}
					out[obj] = minSource(out[obj], src)
				}
			}
		}
	}
	return out
}

// transferSanitize clears taint on a variable passed to a sort/slices
// call: sorting a collected slice of map keys is exactly the sanctioned
// collect-then-sort idiom.
func (ta *taintAnalysis) transferSanitize(es *ast.ExprStmt, s taintState) taintState {
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return s
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return s
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return s
	}
	pkgName, ok := ta.pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return s
	}
	switch pkgName.Imported().Path() {
	case "sort", "slices":
		root := rootIdent(call.Args[0])
		if root == nil {
			return s
		}
		if obj := ta.pkg.Info.ObjectOf(root); obj != nil {
			if _, had := s[obj]; had {
				out := cloneTaint(s)
				delete(out, obj)
				return out
			}
		}
	}
	return s
}

func (ta *taintAnalysis) noteReturn(rs *ast.ReturnStmt, s taintState) {
	ta.resultTaint = minSource(ta.resultTaint, ta.returnTaint(rs, s))
}

// returnTaint computes the best source flowing out of one return
// statement. Error results are exempt: an error aborts the run before
// any figure is produced, so which of several failures surfaces first
// is not a replay-determinism concern.
func (ta *taintAnalysis) returnTaint(rs *ast.ReturnStmt, s taintState) *nondetSource {
	var src *nondetSource
	if len(rs.Results) == 0 {
		for _, obj := range ta.results {
			if isErrorType(obj.Type()) {
				continue
			}
			src = minSource(src, s[obj])
		}
		return src
	}
	for _, e := range rs.Results {
		if isErrorType(ta.pkg.Info.TypeOf(e)) {
			continue
		}
		src = minSource(src, ta.exprTaint(e, s))
	}
	return src
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// exprTaint finds the best nondeterministic source an expression's
// value derives from: a tainted variable, a direct primitive call, or a
// call to a module function whose result is tainted. len/cap results
// are deterministic regardless of operand taint, and function-literal
// bodies are separate functions.
func (ta *taintAnalysis) exprTaint(e ast.Expr, s taintState) *nondetSource {
	if e == nil {
		return nil
	}
	var best *nondetSource
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := ta.pkg.Info.Uses[id].(*types.Builtin); ok {
					if name := b.Name(); name == "len" || name == "cap" {
						return false
					}
				}
			}
			if src := directSource(ta.pkg, n); src != nil {
				best = minSource(best, src)
			}
			if c := ta.m.callee(ta.pkg, n); c != nil {
				if sum := ta.sums[c.Name]; sum != nil && sum.taints != nil {
					best = minSource(best, extendChain(c.Name, sum.taints))
				}
			}
		case *ast.Ident:
			if obj := ta.pkg.Info.ObjectOf(n); obj != nil {
				best = minSource(best, s[obj])
			}
		}
		return true
	})
	return best
}

func cloneTaint(s taintState) taintState {
	out := make(taintState, len(s))
	for o, src := range s {
		out[o] = src
	}
	return out
}

func runNondeterminism(pass *Pass) {
	// External test packages ("<path>.test") and test files are exempt:
	// benchmarks legitimately measure wall-clock time.
	pkg := pass.Pkg
	hasCore := false
	for _, f := range pkg.Files {
		if isCoreFile(pkg, pkg.Fset.Position(f.Pos()).Filename) {
			hasCore = true
			break
		}
	}
	if !hasCore {
		return
	}
	sums := pass.Mod.nondetSummaries()
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		if !isCoreFile(pkg, filename) || pkg.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if src := directSource(pkg, call); src != nil {
				reportDirect(pass, call, src)
				return true
			}
			// Interprocedural: a call whose tree reaches a primitive.
			// Callees in core files are skipped — they get their own
			// direct report at the offending line.
			c := pass.Mod.callee(pkg, call)
			if c == nil {
				return true
			}
			calleeFile := c.Pkg.Fset.Position(c.Decl.Pos()).Filename
			if isCoreFile(c.Pkg, calleeFile) && !c.Pkg.IsTestFile(c.Decl.Pos()) {
				return true
			}
			if sum := sums[c.Name]; sum != nil && sum.reaches != nil {
				src := extendChain(c.Name, sum.reaches)
				pass.Reportf(call.Pos(),
					"call to %s reaches %s in the deterministic core (call chain: %s); thread the vclock/seed instead",
					shortFuncName(c.Name), src.what, src.chainString(src.what))
			}
			return true
		})
		reportTaintedReturns(pass, f, sums)
	}
}

// reportDirect keeps the exact messages of the original syntactic rule
// for primitives called in core files.
func reportDirect(pass *Pass, call *ast.CallExpr, src *nondetSource) {
	name := strings.TrimPrefix(strings.TrimPrefix(src.what, "time."), "math/rand.")
	if strings.HasPrefix(src.what, "time.") {
		pass.Reportf(call.Pos(),
			"wall-clock call time.%s breaks replay determinism; use the injected vclock/seed plumbing",
			name)
		return
	}
	pass.Reportf(call.Pos(),
		"global math/rand.%s draws from the process-wide source; use rand.New(rand.NewSource(seed)) threaded from the config",
		name)
}

// reportTaintedReturns flags core functions whose return value depends
// on map iteration order (locally or through a non-core callee chain).
func reportTaintedReturns(pass *Pass, f *ast.File, sums map[string]*nondetSummary) {
	pkg := pass.Pkg
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		info := pass.Mod.funcs[obj.FullName()]
		if info == nil || info.Decl != fd {
			continue
		}
		ta := &taintAnalysis{m: pass.Mod, pkg: pkg, sums: sums}
		if res := fd.Type.Results; res != nil {
			for _, field := range res.List {
				for _, name := range field.Names {
					if o := pkg.Info.Defs[name]; o != nil {
						ta.results = append(ta.results, o)
					}
				}
			}
		}
		if !mightTaint(info) {
			continue
		}
		d := &dataflow[taintState]{
			cfg:      pass.Mod.cfgOf(fd.Body),
			entry:    taintState{},
			join:     taintJoin,
			equal:    taintEqual,
			transfer: ta.transfer,
		}
		states := d.run()
		d.replay(states, func(n ast.Node, s taintState) {
			rs, ok := n.(*ast.ReturnStmt)
			if !ok {
				return
			}
			src := ta.returnTaint(rs, s)
			if src == nil {
				return
			}
			// Chains that start inside another core function are that
			// function's own finding, not this caller's.
			if len(src.chain) > 0 {
				first := pass.Mod.funcs[src.chain[0]]
				if first != nil {
					firstFile := first.Pkg.Fset.Position(first.Decl.Pos()).Filename
					if isCoreFile(first.Pkg, firstFile) && !first.Pkg.IsTestFile(first.Decl.Pos()) {
						return
					}
				}
			}
			if len(src.chain) == 0 {
				// Local wall-clock/rand primitives already got a direct
				// report at the call site; only map-order reaches here.
				if src.what != mapOrderSource {
					return
				}
				pass.Reportf(rs.Pos(),
					"return value depends on %s; sort collected keys (collect-then-sort) before returning",
					src.what)
			} else {
				pass.Reportf(rs.Pos(),
					"return value depends on %s via %s; sort or make the helper deterministic",
					src.what, src.chainString(src.what))
			}
		})
	}
}
