package analysis

// Control-flow graph construction. Every flow-sensitive pass in this
// package (the taint half of nondeterminism, hotalloc's reachability
// gating) runs over the same per-function CFG: basic blocks of
// statement-granularity nodes connected by the edges a real execution
// can take, including branch joins, loop back-edges, early returns, and
// the panic/os.Exit edges that end a path without returning a value.
//
// Structured statements are decomposed: an *ast.IfStmt never appears as
// a block node — its Cond expression does, and its branches become
// separate blocks. The only composite nodes stored in blocks are
// *ast.RangeStmt and *ast.TypeSwitchStmt headers (their loop/switch
// variables belong to the header), so transfer functions must walk
// block nodes with inspectHeader, which visits exactly the header's own
// expressions and never descends into a nested body or function
// literal.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block: nodes execute in order, then control
// moves to one of succs. Blocks with no successors are terminal
// (normally only the exit block).
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body. Entry has no
// predecessors; every return, panic, or os.Exit edge leads to exit,
// which holds no nodes.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

// reachable returns the blocks reachable from entry in reverse
// post-order, the iteration order the fixpoint engine uses.
func (c *funcCFG) reachable() []*cfgBlock {
	seen := make(map[*cfgBlock]bool, len(c.blocks))
	var post []*cfgBlock
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			visit(s)
		}
		post = append(post, b)
	}
	visit(c.entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// buildCFG constructs the CFG of one function body (a FuncDecl's or
// FuncLit's BlockStmt). Nested function literals are not flattened into
// the enclosing graph; callers analyze their bodies separately.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{cfg: &funcCFG{}, labels: map[string]*labelTarget{}}
	b.cfg.entry = b.newBlock()
	b.cfg.exit = b.newBlock()
	b.cur = b.cfg.entry
	b.stmt(body)
	b.link(b.cur, b.cfg.exit)
	return b.cfg
}

// labelTarget resolves labeled break/continue/goto. For a labeled loop,
// brk/cont point at the loop's after/continue blocks; for any labeled
// statement, gotoBlk is the block the statement starts.
type labelTarget struct {
	brk, cont *cfgBlock
	gotoBlk   *cfgBlock
}

// loopFrame is one enclosing breakable construct. cont is nil for
// switch/select frames (continue skips them).
type loopFrame struct {
	brk, cont *cfgBlock
	label     string
}

type cfgBuilder struct {
	cfg    *funcCFG
	cur    *cfgBlock // nil after a terminating statement
	frames []loopFrame
	labels map[string]*labelTarget
	// pendingLabel names the label attached to the next loop/switch
	// statement, so `continue outer` can find its frame.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.cfg.blocks)}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// startBlock begins a new block with an edge from `from` (which may be
// nil for unreachable starts) and makes it current.
func (b *cfgBuilder) startBlock(from *cfgBlock) *cfgBlock {
	blk := b.newBlock()
	b.link(from, blk)
	b.cur = blk
	return blk
}

// add appends a node to the current block. Nodes after a terminating
// statement (return/panic) are unreachable; they go to a fresh dangling
// block that the fixpoint engine never visits.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) labelFor(name string) *labelTarget {
	t := b.labels[name]
	if t == nil {
		t = &labelTarget{}
		b.labels[name] = t
	}
	return t
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}
	case *ast.LabeledStmt:
		t := b.labelFor(s.Label.Name)
		// A label is a goto target: give the labeled statement its own
		// block so backward gotos have somewhere to land.
		if t.gotoBlk == nil {
			t.gotoBlk = b.newBlock()
		}
		b.link(b.cur, t.gotoBlk)
		b.cur = t.gotoBlk
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		b.startBlock(cond)
		b.stmt(s.Body)
		thenEnd := b.cur
		elseEnd := cond // no else: condition falls through
		if s.Else != nil {
			b.startBlock(cond)
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		after := b.newBlock()
		b.link(thenEnd, after)
		b.link(elseEnd, after)
		b.cur = after
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock(b.cur)
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		if s.Cond != nil {
			b.link(head, after)
		}
		b.pushFrame(loopFrame{brk: after, cont: post, label: label})
		b.startBlock(head)
		b.stmt(s.Body)
		if s.Post != nil {
			b.link(b.cur, post)
			b.cur = post
			b.stmt(s.Post)
			b.link(b.cur, head)
		} else {
			b.link(b.cur, head)
		}
		b.popFrame()
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock(b.cur)
		// The RangeStmt itself is the header node: passes read Key,
		// Value and X from it via inspectHeader.
		b.add(s)
		after := b.newBlock()
		b.link(head, after) // empty collection
		b.pushFrame(loopFrame{brk: after, cont: head, label: label})
		b.startBlock(head)
		b.stmt(s.Body)
		b.link(b.cur, head)
		b.popFrame()
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body, b.cur, label, true)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The TypeSwitchStmt header carries the `v := x.(type)` assign;
		// passes read it via inspectHeader.
		b.add(s)
		b.caseClauses(s.Body, b.cur, label, true)
	case *ast.SelectStmt:
		label := b.takeLabel()
		b.caseClauses(s.Body, b.cur, label, false)
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.cfg.exit)
		b.cur = nil
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.link(b.cur, b.branchTarget(s.Label, false))
			b.cur = nil
		case token.CONTINUE:
			b.link(b.cur, b.branchTarget(s.Label, true))
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				t := b.labelFor(s.Label.Name)
				if t.gotoBlk == nil {
					t.gotoBlk = b.newBlock()
				}
				b.link(b.cur, t.gotoBlk)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by caseClauses; reaching here (malformed code)
			// just ends the block.
		}
	case *ast.ExprStmt:
		b.add(s)
		if isTerminatingCall(s.X) {
			b.link(b.cur, b.cfg.exit)
			b.cur = nil
		}
	case nil:
		// Absent optional statement.
	default:
		// Assign, Decl, IncDec, Send, Defer, Go, Empty: straight-line.
		b.add(s)
	}
}

// caseClauses wires the clause bodies of a switch/type-switch/select.
// withFallthrough enables `fallthrough` chaining between consecutive
// clauses; hasDefaultless switches fall through to after.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, head *cfgBlock, label string, withFallthrough bool) {
	after := b.newBlock()
	b.pushFrame(loopFrame{brk: after, label: label})
	hasDefault := false

	// First materialize one block per clause so fallthrough can link
	// clause i to clause i+1.
	type clause struct {
		blk   *cfgBlock
		stmts []ast.Stmt
		exprs []ast.Expr // case guard expressions / select comm stmt
		comm  ast.Stmt
	}
	var clauses []clause
	for _, raw := range body.List {
		c := clause{blk: b.newBlock()}
		switch cc := raw.(type) {
		case *ast.CaseClause:
			c.stmts = cc.Body
			c.exprs = cc.List
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			c.stmts = cc.Body
			c.comm = cc.Comm
			if cc.Comm == nil {
				hasDefault = true
			}
		}
		b.link(head, c.blk)
		clauses = append(clauses, c)
	}
	if !hasDefault || len(clauses) == 0 {
		// No default: the switch can match nothing; an empty `select{}`
		// blocks forever but analysis treats after as its only exit.
		b.link(head, after)
	}
	for i, c := range clauses {
		b.cur = c.blk
		for _, e := range c.exprs {
			b.add(e)
		}
		if c.comm != nil {
			b.stmt(c.comm)
		}
		fellThrough := false
		for _, st := range c.stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && withFallthrough {
				if i+1 < len(clauses) {
					b.link(b.cur, clauses[i+1].blk)
				}
				b.cur = nil
				fellThrough = true
				break
			}
			b.stmt(st)
		}
		if !fellThrough {
			b.link(b.cur, after)
		}
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) pushFrame(f loopFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()             { b.frames = b.frames[:len(b.frames)-1] }

// branchTarget resolves break/continue, labeled or not, to its block.
// Malformed labels fall back to the function exit so construction never
// fails on code that does not compile cleanly.
func (b *cfgBuilder) branchTarget(label *ast.Ident, isContinue bool) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isContinue && f.cont == nil {
			continue // switch/select frames are transparent to continue
		}
		if label == nil || f.label == label.Name {
			if isContinue {
				return f.cont
			}
			return f.brk
		}
	}
	return b.cfg.exit
}

// isTerminatingCall reports whether an expression statement never
// returns: panic(...), os.Exit(...), log.Fatal*(...).
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "log":
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		case "runtime":
			return fun.Sel.Name == "Goexit"
		}
	}
	return false
}

// inspectHeader walks the expressions a block node evaluates itself,
// without descending into nested statement bodies (which live in their
// own blocks) or function literals (which are analyzed as separate
// functions). This is the only legal way for a transfer function to
// examine a CFG node.
func inspectHeader(n ast.Node, f func(ast.Node) bool) {
	walk := func(x ast.Node) {
		if x == nil {
			return
		}
		ast.Inspect(x, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				f(m) // visible as a node, body not entered
				return false
			}
			return f(m)
		})
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		walk(n.Key)
		walk(n.Value)
		walk(n.X)
	case *ast.TypeSwitchStmt:
		walk(n.Assign)
	default:
		walk(n)
	}
}
