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

// maxSummarySweeps bounds the call-graph fixpoint; summaries only move
// from nil to non-nil, so the bound only guards against a broken scan.
const maxSummarySweeps = 64

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
	for sweep := 0; sweep < maxSummarySweeps; sweep++ {
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

// taintState is the taint map: variables currently holding
// nondeterministic values, each with its provenance.
type taintState map[types.Object]*nondetSource

// taintWalk is the value-taint analysis of one function: a single walk
// over the body in source order. A top-level statement lies on every
// path to the statements after it, so only there may a plain overwrite
// or a sort clear a variable's taint; nested blocks only add taint, and
// a loop body is walked again until the taint map stops growing. The
// state at every return is therefore a superset of what a path-sensitive
// analysis would hold there. A collect-then-sort inside a loop or a
// branch is not recognised: sort at the top level of a function (see
// sortedKeys).
type taintWalk struct {
	m    *Module
	pkg  *Package
	sums map[string]*nondetSummary
	// results holds the named result objects for bare returns.
	results []types.Object
	state   taintState
	// grew records that an entry was added or given a better source
	// since the current loop iteration began.
	grew bool
	// returns lists the tainted return statements in the order first
	// seen; at indexes them for the loop re-walks.
	returns []taintedReturn
	at      map[*ast.ReturnStmt]int
}

// taintedReturn is one return statement whose value is nondeterministic,
// with its best source.
type taintedReturn struct {
	stmt *ast.ReturnStmt
	src  *nondetSource
}

// mightTaint is a cheap syntactic filter: functions with no map range
// and no call expressions cannot produce a tainted result, so the walk
// is skipped for them.
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

// hasGoto reports whether a body contains a goto. A label can be reached
// from a later statement, so no statement is known to precede the ones
// after it.
func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
			found = true
		}
		return !found
	})
	return found
}

// returnTaints lists the return statements of a function whose value is
// nondeterministic.
func (m *Module) returnTaints(info *FuncInfo, sums map[string]*nondetSummary) []taintedReturn {
	if !mightTaint(info) {
		return nil
	}
	w := &taintWalk{m: m, pkg: info.Pkg, sums: sums, state: taintState{}, at: map[*ast.ReturnStmt]int{}}
	if res := info.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := info.Pkg.Info.Defs[name]; obj != nil {
					w.results = append(w.results, obj)
				}
			}
		}
	}
	body := info.Decl.Body
	if hasGoto(body) {
		// Any statement may follow any other: walk the whole body as
		// one loop, without kills.
		w.loop(func() { w.block(body.List, false) })
	} else {
		w.block(body.List, true)
	}
	return w.returns
}

// scanResultTaint decides whether a function returns a nondeterministic
// value.
func (m *Module) scanResultTaint(info *FuncInfo, sums map[string]*nondetSummary) *nondetSource {
	var best *nondetSource
	for _, r := range m.returnTaints(info, sums) {
		best = minSource(best, r.src)
	}
	return best
}

// loop walks a loop body until the taint map stops growing. The body
// never clears taint, so the map only grows and the walk terminates.
func (w *taintWalk) loop(body func()) {
	grew := w.grew
	for {
		w.grew = false
		body()
		if !w.grew {
			break
		}
		grew = true
	}
	w.grew = grew
}

func (w *taintWalk) block(list []ast.Stmt, top bool) {
	for _, s := range list {
		w.stmt(s, top)
	}
}

// stmt applies one statement to the state. top is true for a statement
// of the function's own statement list (and the init of one) in a body
// without goto: only there does an overwrite or a sort clear taint.
func (w *taintWalk) stmt(s ast.Stmt, top bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, top)
	case *ast.DeclStmt:
		w.decl(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && top {
			if obj := sortedObject(w.pkg.Info, call); obj != nil {
				// Sorting a collected slice of map keys is exactly the
				// sanctioned collect-then-sort idiom.
				delete(w.state, obj)
			}
		}
	case *ast.ReturnStmt:
		w.noteReturn(s)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, top)
	case *ast.BlockStmt:
		w.block(s.List, false)
	case *ast.IfStmt:
		w.stmt(s.Init, top)
		w.block(s.Body.List, false)
		w.stmt(s.Else, false)
	case *ast.SwitchStmt:
		w.stmt(s.Init, top)
		w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, top)
		w.clauses(s.Body)
	case *ast.SelectStmt:
		w.clauses(s.Body)
	case *ast.ForStmt:
		w.stmt(s.Init, top)
		w.loop(func() {
			w.block(s.Body.List, false)
			w.stmt(s.Post, false)
		})
	case *ast.RangeStmt:
		w.loop(func() {
			w.rangeHeader(s)
			w.block(s.Body.List, false)
		})
	}
}

// clauses walks the case bodies of a switch, type switch or select.
// Taint from one clause reaches the next, which covers fallthrough.
func (w *taintWalk) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			w.block(c.Body, false)
		case *ast.CommClause:
			w.stmt(c.Comm, false)
			w.block(c.Body, false)
		}
	}
}

// taint records that obj holds a value derived from src.
func (w *taintWalk) taint(obj types.Object, src *nondetSource) {
	if cur := w.state[obj]; cur == nil || lessSource(src, cur) {
		w.state[obj] = src
		w.grew = true
	}
}

// rangeHeader taints the key/value variables of a map range with the
// iteration-order source, and propagates container taint into element
// variables for any range.
func (w *taintWalk) rangeHeader(rs *ast.RangeStmt) {
	var src *nondetSource
	if t := w.pkg.Info.TypeOf(rs.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			src = &nondetSource{what: mapOrderSource}
		}
	}
	if src == nil {
		src = w.exprTaint(rs.X)
	}
	if src == nil {
		return
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := w.pkg.Info.ObjectOf(id); obj != nil {
			w.taint(obj, src)
		}
	}
}

// assign applies an assignment. kill allows a plain overwrite with a
// deterministic value to clear the variable's taint.
func (w *taintWalk) assign(as *ast.AssignStmt, kill bool) {
	// Compound assignments (+=, ...) keep the accumulator's existing
	// taint even when the RHS is clean; only plain =/:= overwrite.
	kill = kill && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE)
	// Every right-hand side is evaluated before any variable changes.
	srcs := make([]*nondetSource, len(as.Lhs))
	switch {
	case len(as.Rhs) == len(as.Lhs):
		for i, rhs := range as.Rhs {
			srcs[i] = w.exprTaint(rhs)
		}
	case len(as.Rhs) == 1:
		src := w.exprTaint(as.Rhs[0])
		for i := range srcs {
			srcs[i] = src
		}
	default:
		return
	}
	for i, lhs := range as.Lhs {
		src := srcs[i]
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		if isIdent && id.Name == "_" {
			continue
		}
		// Storing under a map key is commutative: building a map while
		// ranging another map yields the same final map in any iteration
		// order, so order-taint does not flow into the container. (Taint
		// from a clock or rand value still does — the stored values
		// themselves differ between runs.)
		if src != nil && src.what == mapOrderSource {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if t := w.pkg.Info.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						continue
					}
				}
			}
		}
		root := rootIdent(lhs)
		if root == nil {
			continue
		}
		obj := w.pkg.Info.ObjectOf(root)
		if obj == nil {
			continue
		}
		switch {
		case src != nil:
			w.taint(obj, src)
		case isIdent && kill:
			// Strong update: a plain identifier overwritten with a
			// deterministic value is clean again.
			delete(w.state, obj)
		}
	}
}

func (w *taintWalk) decl(ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			if src := w.exprTaint(vs.Values[i]); src != nil {
				if obj := w.pkg.Info.Defs[name]; obj != nil {
					w.taint(obj, src)
				}
			}
		}
	}
}

// noteReturn records the best source flowing out of one return
// statement. Error results are exempt: an error aborts the run before
// any figure is produced, so which of several failures surfaces first
// is not a replay-determinism concern.
func (w *taintWalk) noteReturn(rs *ast.ReturnStmt) {
	var src *nondetSource
	if len(rs.Results) == 0 {
		for _, obj := range w.results {
			if !isErrorType(obj.Type()) {
				src = minSource(src, w.state[obj])
			}
		}
	}
	for _, e := range rs.Results {
		if !isErrorType(w.pkg.Info.TypeOf(e)) {
			src = minSource(src, w.exprTaint(e))
		}
	}
	if src == nil {
		return
	}
	if i, ok := w.at[rs]; ok {
		w.returns[i].src = minSource(w.returns[i].src, src)
		return
	}
	w.at[rs] = len(w.returns)
	w.returns = append(w.returns, taintedReturn{stmt: rs, src: src})
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// exprTaint finds the best nondeterministic source an expression's
// value derives from: a tainted variable, a direct primitive call, or a
// call to a module function whose result is tainted. len/cap results
// are deterministic regardless of operand taint, and function-literal
// bodies are separate functions.
func (w *taintWalk) exprTaint(e ast.Expr) *nondetSource {
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
				if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
					if name := b.Name(); name == "len" || name == "cap" {
						return false
					}
				}
			}
			if src := directSource(w.pkg, n); src != nil {
				best = minSource(best, src)
			}
			if c := w.m.callee(w.pkg, n); c != nil {
				if sum := w.sums[c.Name]; sum != nil && sum.taints != nil {
					best = minSource(best, extendChain(c.Name, sum.taints))
				}
			}
		case *ast.Ident:
			if obj := w.pkg.Info.ObjectOf(n); obj != nil {
				best = minSource(best, w.state[obj])
			}
		}
		return true
	})
	return best
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
		for _, r := range pass.Mod.returnTaints(info, sums) {
			rs, src := r.stmt, r.src
			// Chains that start inside another core function are that
			// function's own finding, not this caller's.
			if len(src.chain) > 0 {
				first := pass.Mod.funcs[src.chain[0]]
				if first != nil {
					firstFile := first.Pkg.Fset.Position(first.Decl.Pos()).Filename
					if isCoreFile(first.Pkg, firstFile) && !first.Pkg.IsTestFile(first.Decl.Pos()) {
						continue
					}
				}
			}
			if len(src.chain) == 0 {
				// Local wall-clock/rand primitives already got a direct
				// report at the call site; only map-order reaches here.
				if src.what != mapOrderSource {
					continue
				}
				pass.Reportf(rs.Pos(),
					"return value depends on %s; sort collected keys (collect-then-sort) before returning",
					src.what)
			} else {
				pass.Reportf(rs.Pos(),
					"return value depends on %s via %s; sort or make the helper deterministic",
					src.what, src.chainString(src.what))
			}
		}
	}
}
