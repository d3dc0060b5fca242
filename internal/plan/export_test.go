package plan

// SubPlanList returns every sub-tree of the main operator tree (including
// the root itself), in pre-order.
func (n *Node) SubPlanList() []*Node {
	var out []*Node
	n.WalkTree(func(m *Node) { out = append(out, m) })
	return out
}
