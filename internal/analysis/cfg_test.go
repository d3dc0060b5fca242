package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses `func f() { <src> }` and returns its body.
func parseBody(t *testing.T, src string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg.go", "package p\nfunc f() {\n"+src+"\n}", 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, file.Decls[0].(*ast.FuncDecl).Body
}

// reachNodes runs a counting dataflow over the CFG: the state is the
// number of nodes seen on the longest path, and visit order is checked
// by replay. It exists to exercise run/replay plumbing end to end.
func countVisits(cfg *funcCFG) int {
	d := &dataflow[int]{
		cfg:   cfg,
		entry: 0,
		join: func(a, b int) int {
			if a > b {
				return a
			}
			return b
		},
		equal:    func(a, b int) bool { return a == b },
		transfer: func(_ ast.Node, s int) int { return s + 1 },
	}
	visits := 0
	d.replay(d.run(), func(ast.Node, int) { visits++ })
	return visits
}

func TestCFGStraightLine(t *testing.T) {
	_, body := parseBody(t, "x := 1\ny := x\n_ = y")
	cfg := buildCFG(body)
	if got := countVisits(cfg); got != 3 {
		t.Fatalf("straight-line visits = %d, want 3", got)
	}
	// Entry flows to exit.
	last := cfg.reachable()[len(cfg.reachable())-1]
	if last != cfg.exit {
		t.Fatalf("exit is not last in reverse post-order")
	}
}

func TestCFGBranchJoin(t *testing.T) {
	_, body := parseBody(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`)
	cfg := buildCFG(body)
	// The condition block must have two successors (then/else).
	var condBlk *cfgBlock
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			if e, ok := n.(ast.Expr); ok {
				if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.GTR {
					condBlk = blk
				}
			}
		}
	}
	if condBlk == nil {
		t.Fatal("condition expression not found in any block")
	}
	if len(condBlk.succs) != 2 {
		t.Fatalf("condition block has %d successors, want 2", len(condBlk.succs))
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	_, body := parseBody(t, `
for i := 0; i < 3; i++ {
	_ = i
}`)
	cfg := buildCFG(body)
	// Some reachable block must have a successor with a smaller or equal
	// index that is already on the path — i.e. a back edge.
	hasBack := false
	for _, blk := range cfg.reachable() {
		for _, s := range blk.succs {
			if s.index < blk.index && s != cfg.exit {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatal("for loop produced no back edge")
	}
}

func TestCFGRangeHeaderNode(t *testing.T) {
	_, body := parseBody(t, `
m := map[string]int{}
for k := range m {
	_ = k
}`)
	cfg := buildCFG(body)
	found := false
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			if rs, ok := n.(*ast.RangeStmt); ok {
				found = true
				// inspectHeader must see Key and X but not the body.
				var idents []string
				inspectHeader(rs, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						idents = append(idents, id.Name)
					}
					return true
				})
				joined := strings.Join(idents, ",")
				if !strings.Contains(joined, "k") || !strings.Contains(joined, "m") {
					t.Fatalf("inspectHeader(range) visited %q, want k and m", joined)
				}
			}
			if _, ok := n.(*ast.BlockStmt); ok {
				t.Fatal("a BlockStmt leaked into a CFG block")
			}
		}
	}
	if !found {
		t.Fatal("RangeStmt header node missing")
	}
}

func TestCFGEarlyReturnReachesExit(t *testing.T) {
	_, body := parseBody(t, `
x := 1
if x > 0 {
	return
}
_ = x`)
	cfg := buildCFG(body)
	// exit must have at least two predecessors: the early return and the
	// fallthrough end.
	preds := 0
	for _, blk := range cfg.reachable() {
		for _, s := range blk.succs {
			if s == cfg.exit {
				preds++
			}
		}
	}
	if preds < 2 {
		t.Fatalf("exit has %d predecessor edges, want >= 2", preds)
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	_, body := parseBody(t, `
x := 1
if x > 0 {
	panic("no")
}
_ = x`)
	cfg := buildCFG(body)
	var panicBlk *cfgBlock
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isTerminatingCall(es.X) {
				panicBlk = blk
			}
		}
	}
	if panicBlk == nil {
		t.Fatal("panic statement not found")
	}
	toExit := false
	for _, s := range panicBlk.succs {
		if s == cfg.exit {
			toExit = true
		}
	}
	if !toExit {
		t.Fatal("panic block has no edge to exit")
	}
}

func TestCFGBreakContinueLabels(t *testing.T) {
	_, body := parseBody(t, `
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if j == 1 {
			continue outer
		}
		if j == 2 {
			break outer
		}
	}
}
_ = 1`)
	cfg := buildCFG(body)
	if got := countVisits(cfg); got == 0 {
		t.Fatal("no nodes visited")
	}
	// The trailing statement must remain reachable through break outer.
	foundTail := false
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" && len(as.Rhs) == 1 {
					if bl, ok := as.Rhs[0].(*ast.BasicLit); ok && bl.Value == "1" {
						foundTail = true
					}
				}
			}
		}
	}
	if !foundTail {
		t.Fatal("statement after the labeled loop is unreachable")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	_, body := parseBody(t, `
x := 1
switch x {
case 1:
	x = 10
	fallthrough
case 2:
	x = 20
default:
	x = 30
}
_ = x`)
	cfg := buildCFG(body)
	// Find the blocks holding x = 10 and x = 20; the first must link to
	// the second (fallthrough), not to after.
	var b10, b20 *cfgBlock
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			if bl, ok := as.Rhs[0].(*ast.BasicLit); ok {
				switch bl.Value {
				case "10":
					b10 = blk
				case "20":
					b20 = blk
				}
			}
		}
	}
	if b10 == nil || b20 == nil {
		t.Fatal("case bodies not found")
	}
	linked := false
	for _, s := range b10.succs {
		if s == b20 {
			linked = true
		}
	}
	if !linked {
		t.Fatal("fallthrough did not link case 1 to case 2")
	}
}

func TestCFGTypeSwitchHeader(t *testing.T) {
	_, body := parseBody(t, `
var v interface{} = 1
switch t := v.(type) {
case int:
	_ = t
default:
	_ = t
}`)
	cfg := buildCFG(body)
	found := false
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.TypeSwitchStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("TypeSwitchStmt header node missing")
	}
}

func TestCFGDeferIsStraightLine(t *testing.T) {
	_, body := parseBody(t, `
defer func() { _ = recover() }()
x := 1
_ = x`)
	cfg := buildCFG(body)
	found := false
	for _, blk := range cfg.reachable() {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("DeferStmt missing from CFG")
	}
}

// TestCFGGotoBackward checks that a backward goto forms a cycle instead
// of losing the edge.
func TestCFGGotoBackward(t *testing.T) {
	_, body := parseBody(t, `
i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
_ = i`)
	cfg := buildCFG(body)
	hasCycleEdge := false
	for _, blk := range cfg.reachable() {
		for _, s := range blk.succs {
			if s.index < blk.index && s != cfg.exit {
				hasCycleEdge = true
			}
		}
	}
	if !hasCycleEdge {
		t.Fatal("backward goto produced no back edge")
	}
}

// TestFixpointLoopConverges runs a must-style analysis over a loop and
// checks it terminates with the conservative join.
func TestFixpointLoopConverges(t *testing.T) {
	_, body := parseBody(t, `
held := false
for i := 0; i < 3; i++ {
	held = true
}
_ = held`)
	cfg := buildCFG(body)
	// Must-analysis over "was the loop body executed": entry true only if
	// all paths executed it. After the loop the value must join to false
	// (zero-iteration path exists).
	type fact struct{ all, any bool }
	d := &dataflow[fact]{
		cfg:   cfg,
		entry: fact{all: true},
		join:  func(a, b fact) fact { return fact{all: a.all && b.all, any: a.any || b.any} },
		equal: func(a, b fact) bool { return a == b },
		transfer: func(n ast.Node, s fact) fact {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				return fact{all: s.all, any: true}
			}
			return s
		},
	}
	in := d.run()
	exitState, ok := in[cfg.exit]
	if !ok {
		t.Fatal("exit state missing")
	}
	if !exitState.any {
		t.Fatal("may-half lost the loop body assignment")
	}
}
