package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// HotPathPackages lists the packages whose loops are presumed per-row
// or per-request: the executor iterates them once per tuple and the
// serving layer once per concurrent request, so any string-building
// allocation inside a loop multiplies by table cardinality (executor)
// or request rate (server). The sanctioned patterns are rendering into
// a reused []byte buffer (types.Value.AppendKey), probing maps via
// m[string(buf)], and — in the serving layer — precomputing names and
// labels at construction time instead of per scrape or per request.
var HotPathPackages = []string{
	"qpp/internal/exec",
	"qpp/internal/serve",
	"qpp/internal/sketch",
	"qpp/internal/plancache",
	"qpp/cmd/qppserve",
}

// PredictPathPackages lists the packages a /predict request scores a
// plan with — features, signatures, model evaluation. They are not hot
// path packages (training and the figure drivers run the same code at
// leisure), so only their functions reachable from the predict handlers
// are checked, and only for what such a function has no reason to
// allocate per request: a map, or a strings.Builder rendering.
var PredictPathPackages = []string{
	"qpp/internal/qpp",
	"qpp/internal/plan",
	"qpp/internal/mlearn",
}

// fmtAllocDeny is the allocating render surface of package fmt. Errorf
// stays legal: error paths abort the query, so they are cold by
// construction.
var fmtAllocDeny = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
}

// stringsAllocDeny lists strings functions that always allocate their
// result. The pure scanners (Index, HasPrefix, EqualFold, ...) are
// allocation-free and stay legal.
var stringsAllocDeny = map[string]bool{
	"Join":       true,
	"Repeat":     true,
	"Replace":    true,
	"ReplaceAll": true,
	"ToUpper":    true,
	"ToLower":    true,
}

func init() {
	register(Rule{
		Name: "hotalloc",
		Doc: "flag per-row allocation patterns inside loops of the executor " +
			"hot-path packages — fmt.Sprintf/Sprint/Sprintln, allocating " +
			"strings helpers (Join, Repeat, ...), strings.Builder writes, and " +
			"string concatenation; render into a reused []byte buffer " +
			"(types.Value.AppendKey) and probe maps with m[string(buf)] instead. " +
			"In functions reachable from a hot entry point (exec Next/Open/ReScan, " +
			"serve ServeHTTP/handle*/wrap*) it additionally reports escape-shaped " +
			"allocations: capturing closures built per iteration, non-pointer " +
			"values boxed into interface arguments, and append-growth of slices " +
			"declared outside the loop without preallocation or reuse. In the " +
			"executor package, every make or append-copy of a []types.Value " +
			"(plan.Row), or of a slice of an element type the per-query arena " +
			"keeps free lists of (its scratch[T] type arguments), is reported: " +
			"that memory comes from the arena. In the predict-path packages " +
			"(qpp, plan, mlearn), a function reachable from serve's handlePredict " +
			"or handleBatch may not build a map (make or literal) or write to a " +
			"strings.Builder",
		Run: runHotAlloc,
	})
}

func isHotPathPackage(path string) bool {
	for _, p := range HotPathPackages {
		if path == p {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) {
	// Test files are exempt: benchmarks and test helpers legitimately
	// format strings per iteration.
	if slices.Contains(PredictPathPackages, pass.Pkg.Path) {
		checkPredictPath(pass)
		return
	}
	if !isHotPathPackage(pass.Pkg.Path) {
		return
	}
	reach := pass.Mod.hotReachable()
	var pooled map[string]bool
	if pass.Pkg.Path == "qpp/internal/exec" {
		pooled = pooledElems(pass)
	}
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			checkHotLoopBody(pass, body)
			// The body walk above already covered nested loops; descending
			// here would double-report them.
			return false
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pooled != nil {
				checkPooledAllocs(pass, fd, pooled)
			}
			obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !reach[obj.FullName()] {
				continue
			}
			checkHotEscapes(pass, fd)
		}
	}
}

// hotEntryPoint reports whether a declaration is one of the per-row /
// per-request roots the escape checks measure reachability from.
func hotEntryPoint(pkgPath string, fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	switch pkgPath {
	case "qpp/internal/exec":
		// Operator methods run once per tuple (Next) or per restart
		// (Open, ReScan) of a potentially re-scanned inner input.
		return fd.Recv != nil && (name == "Next" || name == "Open" || name == "ReScan")
	case "qpp/internal/serve", "qpp/cmd/qppserve":
		return name == "ServeHTTP" || strings.HasPrefix(name, "handle") || strings.HasPrefix(name, "wrap")
	case "qpp/internal/plancache":
		// Plan (and everything it reaches: canonicalization, literal
		// rebinding, candidate replay and costing) runs once per served
		// request; Canonicalize additionally runs on every lookup.
		return name == "Plan" || name == "Canonicalize"
	}
	return false
}

// hotReachable memoizes the set of module functions reachable from a
// hot entry point over the static call graph.
func (m *Module) hotReachable() map[string]bool {
	if !m.hotOK {
		m.hotReach = m.reachable(func(info *FuncInfo) bool {
			return isHotPathPackage(info.Pkg.Path) && hotEntryPoint(info.Pkg.Path, info.Decl)
		})
		m.hotOK = true
	}
	return m.hotReach
}

// predictReachable memoizes the set of module functions reachable from
// the serving layer's predict handlers.
func (m *Module) predictReachable() map[string]bool {
	if !m.predictOK {
		m.predictReach = m.reachable(func(info *FuncInfo) bool {
			name := info.Decl.Name.Name
			return info.Pkg.Path == "qpp/internal/serve" && (name == "handlePredict" || name == "handleBatch")
		})
		m.predictOK = true
	}
	return m.predictReach
}

// reachable is the set of module functions reachable from the roots
// over the static call graph.
func (m *Module) reachable(root func(*FuncInfo) bool) map[string]bool {
	reach := map[string]bool{}
	var queue []string
	for _, name := range m.funcNames {
		if root(m.funcs[name]) {
			reach[name] = true
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, c := range m.calleesOf(m.funcs[name]) {
			if !reach[c.Name] {
				reach[c.Name] = true
				queue = append(queue, c.Name)
			}
		}
	}
	return reach
}

// checkPredictPath reports, in a function of a predict-path package that
// the predict handlers reach, every map it builds and every write to a
// strings.Builder: per request, a lookup table belongs in a package-level
// variable built once, and a rendering in a reused []byte.
func checkPredictPath(pass *Pass) {
	reach := pass.Mod.predictReachable()
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok || !reach[obj.FullName()] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if _, isMap := info.TypeOf(n).Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "%s builds a map literal on every /predict; build it once in a package-level variable", fd.Name.Name)
					}
				case *ast.CallExpr:
					if fun, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && fun.Name == "make" && len(n.Args) > 0 {
						if _, isMap := info.TypeOf(n.Args[0]).Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), "%s makes a map on every /predict; build it once in a package-level variable", fd.Name.Name)
						}
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isStringsBuilderRecv(info, sel.X) && strings.HasPrefix(sel.Sel.Name, "Write") {
						pass.Reportf(n.Pos(), "%s writes to a strings.Builder on every /predict; append to a reused []byte instead", fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// checkPooledAllocs reports memory the executor takes from the heap
// although its per-query arena pools it: make(S, …) and the copy idiom
// append(S(nil), …), where S is row storage ([]types.Value, under either
// spelling — plan.Row is an alias) or a slice of an element type the arena
// keeps free lists of, the type argument of one of the package's
// scratch[T] instantiations (rows, hash slots and keys, join chains,
// aggregate groups and states). The free lists' own code makes []T of a
// type parameter and is not matched. The check covers the whole package —
// Run and its helpers are not reachable from Next/Open/ReScan, and the
// sites there that legitimately stay on the heap should say why too.
func checkPooledAllocs(pass *Pass, fd *ast.FuncDecl, pooled map[string]bool) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
			return true
		}
		first := ast.Unparen(call.Args[0])
		var slice types.Type
		switch fun.Name {
		case "make":
			slice = info.TypeOf(first)
		case "append":
			conv, ok := first.(*ast.CallExpr)
			if !ok || len(conv.Args) != 1 || !info.Types[conv.Fun].IsType() || !info.Types[conv.Args[0]].IsNil() {
				return true
			}
			slice = info.TypeOf(conv.Fun)
		default:
			return true
		}
		switch {
		case isRowType(slice):
			pass.Reportf(call.Pos(),
				"%s of a []types.Value in the executor: row storage comes from the arena (execCtx.mem), which the next query reuses",
				fun.Name)
		case pooled[pooledKey(sliceElem(slice))]:
			pass.Reportf(call.Pos(),
				"%s of a %s in the executor: the arena keeps free lists of this element type (execCtx.mem), which the next query reuses",
				fun.Name, types.TypeString(slice, types.RelativeTo(pass.Pkg.Types)))
		}
		return true
	})
}

// pooledElems returns the element types, as pooledKey strings, of the
// free lists the package declares: the type arguments of its scratch[T]
// instantiations (the methods' own scratch[T] is not one).
func pooledElems(pass *Pass) map[string]bool {
	pooled := map[string]bool{}
	for _, inst := range pass.Pkg.Info.Instances {
		named, ok := inst.Type.(*types.Named)
		if !ok || inst.TypeArgs.Len() != 1 {
			continue
		}
		obj, arg := named.Origin().Obj(), inst.TypeArgs.At(0)
		if _, generic := arg.(*types.TypeParam); !generic && obj.Name() == "scratch" && obj.Pkg() == pass.Pkg.Types {
			pooled[pooledKey(arg)] = true
		}
	}
	return pooled
}

func pooledKey(t types.Type) string {
	if t == nil {
		return ""
	}
	return types.TypeString(types.Unalias(t), nil)
}

// sliceElem returns the element type of a slice type, or nil.
func sliceElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		return s.Elem()
	}
	return nil
}

// isRowType reports whether t is a slice of qpp/internal/types.Value.
func isRowType(t types.Type) bool {
	named, ok := types.Unalias(sliceElem(t)).(*types.Named)
	return ok && named.Obj().Name() == "Value" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "qpp/internal/types"
}

// hotLoop is one for/range loop inside a hot-reachable function.
type hotLoop struct {
	node ast.Node
	body *ast.BlockStmt
}

func collectLoops(body *ast.BlockStmt) []hotLoop {
	var loops []hotLoop
	ast.Inspect(body, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, hotLoop{node: n, body: l.Body})
		case *ast.RangeStmt:
			loops = append(loops, hotLoop{node: n, body: l.Body})
		case *ast.FuncLit:
			// A loop inside a closure belongs to the closure's own walk
			// (and the closure itself is what allocates per iteration).
			return false
		}
		return true
	})
	return loops
}

// innermostLoop returns the smallest collected loop whose body contains
// pos, or nil when pos is outside every loop.
func innermostLoop(loops []hotLoop, pos token.Pos) *hotLoop {
	var best *hotLoop
	for i := range loops {
		l := &loops[i]
		if pos < l.body.Pos() || pos > l.body.End() {
			continue
		}
		if best == nil || l.body.Pos() > best.body.Pos() {
			best = l
		}
	}
	return best
}

// checkHotEscapes reports the escape-shaped per-iteration allocations
// inside one hot-reachable function: capturing closures, interface
// boxing at call boundaries, and append-growth of loop-external slices.
func checkHotEscapes(pass *Pass, fd *ast.FuncDecl) {
	loops := collectLoops(fd.Body)
	if len(loops) == 0 {
		return
	}
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if innermostLoop(loops, x.Pos()) == nil {
				return true
			}
			captured := closureCaptures(info, fd, x)
			if len(captured) == 0 {
				return true
			}
			pass.Reportf(x.Pos(),
				"func literal captures %s inside a hot loop; the closure allocates per iteration — hoist it out of the loop or pass values as parameters",
				strings.Join(captured, ", "))
			// One finding per outermost capturing closure: its nested
			// literals are part of the same per-iteration allocation.
			return false
		case *ast.CallExpr:
			if innermostLoop(loops, x.Pos()) != nil {
				checkBoxingCall(pass, x)
			}
		case *ast.AssignStmt:
			if loop := innermostLoop(loops, x.Pos()); loop != nil {
				checkAppendGrowth(pass, fd, loop, x)
			}
		}
		return true
	})
}

// closureCaptures lists the function-local variables a literal closes
// over (declared in the enclosing function before the literal), sorted.
func closureCaptures(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			seen[id.Name] = true
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkBoxingCall reports non-pointer values converted to interface
// parameters inside a hot loop. Error-path formatting (fmt.Errorf,
// package errors, panic) is exempt: those abort the query, so they are
// cold by construction; panic and other builtins carry no *types.
// Signature and skip naturally.
func checkBoxingCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if tv, ok := info.Types[call.Fun]; !ok || tv.IsType() {
		return // conversion, not a call
	}
	if isColdCall(info, call) {
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice itself, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isPointerShaped(at) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && (tv.Value != nil || tv.IsNil()) {
			continue // constants and nil box into static data, not the heap
		}
		pass.Reportf(arg.Pos(),
			"passing %s boxes a %s into an interface per iteration of a hot loop; use a concrete-typed parameter or hoist the value out of the loop",
			types.ExprString(arg), at.String())
	}
}

// isColdCall recognizes error-path calls exempt from boxing checks.
func isColdCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "errors":
		return true
	case "fmt":
		return sel.Sel.Name == "Errorf"
	}
	return false
}

// isPointerShaped reports whether converting t to an interface stores
// the value inline (one word) instead of heap-allocating a box.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// checkAppendGrowth reports `x = append(x, ...)` growing a slice that
// was declared outside the loop without a capacity hint or `x = x[:0]`
// reuse — the shape that reallocates log(n) times per call instead of
// once at construction.
func checkAppendGrowth(pass *Pass, fd *ast.FuncDecl, loop *hotLoop, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	info := pass.Pkg.Info
	obj, ok := info.ObjectOf(lhs).(*types.Var)
	if !ok {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return
	}
	if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
		return
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || info.ObjectOf(first) != obj {
		return
	}
	// Only slices declared outside the loop accumulate across
	// iterations; a per-iteration slice is a different (cheaper) sin.
	if obj.Pos() >= loop.node.Pos() && obj.Pos() <= loop.node.End() {
		return
	}
	if hasPreallocEvidence(info, fd, obj) {
		return
	}
	pass.Reportf(as.Pos(),
		"append grows %s per iteration of a hot loop without preallocation; size it with make(T, 0, n) outside the loop or reuse it with %s = %s[:0]",
		lhs.Name, lhs.Name, lhs.Name)
}

// hasPreallocEvidence reports whether the function deliberately manages
// obj's capacity: a `make(T, n, c)` with an explicit cap, a reslice to
// empty (`x = x[:0]`, `buf := s.keyBuf[:0]` — buffer reuse), or a
// three-index `xs[:0:0]` (copy-on-append filtering). Any of these marks
// the growth as intentional.
func hasPreallocEvidence(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.ObjectOf(id) == obj
	}
	sized := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			fun, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if !ok || fun.Name != "make" || len(x.Args) != 3 {
				return false
			}
			_, isBuiltin := info.Uses[fun].(*types.Builtin)
			return isBuiltin
		case *ast.SliceExpr:
			lit, ok := x.High.(*ast.BasicLit)
			return ok && lit.Value == "0" && x.Low == nil
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i < len(x.Rhs) && isObj(lhs) && sized(x.Rhs[i]) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) && info.ObjectOf(name) == obj && sized(x.Values[i]) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkHotLoopBody walks one outermost loop body (nested loops included)
// and reports every allocation pattern the executor must not pay per
// row.
func checkHotLoopBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	// A string a+b+c chain parses as ((a+b)+c); reporting every nested
	// BinaryExpr would triple-flag one expression, so inner adds of an
	// already-reported chain are skipped.
	reportedChain := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, x)
		case *ast.BinaryExpr:
			if x.Op != token.ADD || reportedChain[x] || !isStringType(info.TypeOf(x)) {
				return true
			}
			// Constant-folded concatenations ("a" + "b") cost nothing at
			// run time.
			if tv, ok := info.Types[x]; ok && tv.Value != nil {
				return true
			}
			pass.Reportf(x.Pos(),
				"string concatenation inside an executor loop allocates per row; append into a reused []byte buffer (Value.AppendKey) instead")
			markNestedAdds(x, reportedChain)
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
				pass.Reportf(x.Pos(),
					"string += inside an executor loop reallocates the accumulator per row; append into a reused []byte buffer instead")
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	info := pass.Pkg.Info
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[id].(*types.PkgName); ok {
			name := sel.Sel.Name
			switch pkgName.Imported().Path() {
			case "fmt":
				if fmtAllocDeny[name] {
					pass.Reportf(call.Pos(),
						"fmt.%s allocates per row inside an executor loop; render into a reused []byte buffer (Value.AppendKey) instead", name)
				}
			case "strings":
				if stringsAllocDeny[name] {
					pass.Reportf(call.Pos(),
						"strings.%s allocates its result per row inside an executor loop; render into a reused []byte buffer instead", name)
				}
			}
			return
		}
	}
	if isStringsBuilderRecv(info, sel.X) {
		pass.Reportf(call.Pos(),
			"strings.Builder use inside an executor loop allocates per row; reuse a []byte buffer across rows instead")
	}
}

// isStringsBuilderRecv reports whether the expression's type is
// strings.Builder (or a pointer to it).
func isStringsBuilderRecv(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "strings" && obj.Name() == "Builder"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// markNestedAdds marks every + under e as part of an already-reported
// concatenation chain.
func markNestedAdds(e ast.Expr, seen map[ast.Expr]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			seen[b] = true
		}
		return true
	})
}
