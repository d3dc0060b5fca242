package analysis

// Worklist fixpoint engine over funcCFG. A pass instantiates dataflow
// with its lattice (join, equal) and transfer function, runs the
// fixpoint to get per-block input states, then replays blocks node by
// node to report findings with the exact state before each node.

import "go/ast"

// dataflow is one forward may/must analysis over a single function.
// States must be treated as immutable by transfer: return a fresh value
// (or the input unchanged) rather than mutating in place, because the
// same state is joined into multiple successors.
type dataflow[S any] struct {
	cfg      *funcCFG
	entry    S
	join     func(S, S) S
	equal    func(S, S) bool
	transfer func(ast.Node, S) S
}

// maxFixpointSweeps bounds the iteration count; every lattice used here
// has finite height, so the bound only guards against a future pass
// with a broken equal. Hitting it leaves a sound-enough partial result.
const maxFixpointSweeps = 64

// run computes the input state of every reachable block.
func (d *dataflow[S]) run() map[*cfgBlock]S {
	order := d.cfg.reachable()
	in := make(map[*cfgBlock]S, len(order))
	in[d.cfg.entry] = d.entry
	for sweep := 0; sweep < maxFixpointSweeps; sweep++ {
		changed := false
		for _, blk := range order {
			state, ok := in[blk]
			if !ok {
				continue // no predecessor has produced a state yet
			}
			out := d.flowThrough(blk, state)
			for _, succ := range blk.succs {
				prev, seen := in[succ]
				var next S
				if seen {
					next = d.join(prev, out)
				} else {
					next = out
				}
				if !seen || !d.equal(prev, next) {
					in[succ] = next
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// flowThrough applies the transfer function across one block's nodes.
func (d *dataflow[S]) flowThrough(blk *cfgBlock, state S) S {
	for _, n := range blk.nodes {
		state = d.transfer(n, state)
	}
	return state
}

// replay re-walks every reachable block calling visit (when non-nil)
// with the state in force immediately before each node.
func (d *dataflow[S]) replay(in map[*cfgBlock]S, visit func(ast.Node, S)) {
	for _, blk := range d.cfg.reachable() {
		state, ok := in[blk]
		if !ok {
			continue
		}
		for _, n := range blk.nodes {
			if visit != nil {
				visit(n, state)
			}
			state = d.transfer(n, state)
		}
	}
}
