package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan in PostgreSQL's EXPLAIN format, with actual
// times appended when the plan has been executed (EXPLAIN ANALYZE style,
// in virtual seconds).
func Explain(root *Node) string {
	var sb strings.Builder
	writeExplain(&sb, root, 0, "")
	for i, ip := range root.InitPlans() {
		fmt.Fprintf(&sb, "  InitPlan %d\n", i+1)
		writeExplain(&sb, ip, 2, "-> ")
	}
	for i, sp := range root.SubPlans() {
		fmt.Fprintf(&sb, "  SubPlan %d\n", i+1)
		writeExplain(&sb, sp, 2, "-> ")
	}
	return sb.String()
}

func writeExplain(sb *strings.Builder, n *Node, depth int, prefix string) {
	indent := strings.Repeat("  ", depth)
	head := n.Op.String()
	join := n.JoinOf()
	switch n.Op {
	case OpHashJoin, OpNestedLoop, OpMergeJoin:
		if join.Type != JoinInner {
			// e.g. "Hash Left Join", "Nested Loop Left Join"
			base := strings.TrimSuffix(head, " Join")
			if n.Op == OpNestedLoop {
				head = fmt.Sprintf("%s %s Join", head, join.Type)
			} else {
				head = fmt.Sprintf("%s %s Join", base, join.Type)
			}
		}
	}
	if n.Table != "" {
		if n.Alias != "" && n.Alias != n.Table {
			head += fmt.Sprintf(" on %s %s", n.Table, n.Alias)
		} else {
			head += " on " + n.Table
		}
	}
	if idx := n.IndexName(); idx != "" {
		head += " using " + idx
	}
	fmt.Fprintf(sb, "%s%s%s  (cost=%.2f..%.2f rows=%.0f width=%.0f)",
		indent, prefix, head, n.Est.StartupCost, n.Est.TotalCost, n.Est.Rows, n.Est.Width)
	if n.Act.Executed {
		fmt.Fprintf(sb, " (actual time=%.4f..%.4f rows=%.0f loops=%d)",
			n.Act.StartTime, n.Act.RunTime, n.Act.Rows, n.Act.Loops)
	}
	sb.WriteString("\n")

	detail := func(label, text string) {
		fmt.Fprintf(sb, "%s      %s: %s\n", indent, label, text)
	}
	if len(join.HashKeysL) > 0 {
		conds := make([]string, len(join.HashKeysL))
		for i := range join.HashKeysL {
			conds[i] = join.HashKeysL[i].String() + " = " + join.HashKeysR[i].String()
		}
		label := "Hash Cond"
		if n.Op == OpMergeJoin {
			label = "Merge Cond"
		}
		detail(label, strings.Join(conds, " AND "))
	}
	if join.Filter != nil {
		detail("Join Filter", join.Filter.String())
	}
	if n.Filter != nil {
		detail("Filter", n.Filter.String())
	}
	if groups := n.GroupBy(); len(groups) > 0 {
		keys := make([]string, len(groups))
		for i, g := range groups {
			keys[i] = g.String()
		}
		detail("Group Key", strings.Join(keys, ", "))
	}
	if sortKeys := n.SortKeys(); len(sortKeys) > 0 {
		keys := make([]string, len(sortKeys))
		for i, k := range sortKeys {
			dir := ""
			if k.Desc {
				dir = " DESC"
			}
			name := fmt.Sprintf("column %d", k.Col)
			if k.Col < len(n.Children[0].Cols) && n.Children[0].Cols[k.Col].Name != "" {
				name = n.Children[0].Cols[k.Col].Name
			}
			keys[i] = name + dir
		}
		detail("Sort Key", strings.Join(keys, ", "))
	}
	for _, c := range n.Children {
		writeExplain(sb, c, depth+1, "-> ")
	}
}
