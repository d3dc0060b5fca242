package analysis

import (
	"path/filepath"
	"strconv"
	"strings"
)

// JSONFinding is the machine-readable form of one Finding; File is
// relative to the report root so CI artifacts do not leak absolute
// build paths.
type JSONFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// Report is the `qpplint -json` document: findings in diagnostic order
// plus per-rule counts (every registered rule appears, zeros included,
// so dashboards can distinguish "rule clean" from "rule missing").
type Report struct {
	Findings []JSONFinding  `json:"findings"`
	ByRule   map[string]int `json:"by_rule"`
	Total    int            `json:"total"`
}

// NewReport converts the findings of a full run into a Report,
// relativizing file paths against root (absolute paths outside root are
// kept as-is).
func NewReport(root string, findings []Finding) Report {
	rep := Report{
		Findings: make([]JSONFinding, 0, len(findings)),
		ByRule:   map[string]int{},
		Total:    len(findings),
	}
	for _, r := range Rules() {
		rep.ByRule[r.Name] = 0
	}
	for _, f := range findings {
		file := f.Pos.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		rep.Findings = append(rep.Findings, JSONFinding{
			File:    file,
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
		})
		rep.ByRule[f.Rule]++
	}
	return rep
}

// Summary renders the per-rule counts as one line, non-zero rules
// first: `3 findings (hotalloc:2 maporder:1; clean: errdrop, ...)`.
func (r Report) Summary() string {
	var hits, clean []string
	for _, name := range sortedKeys(r.ByRule) {
		if n := r.ByRule[name]; n > 0 {
			hits = append(hits, name+":"+strconv.Itoa(n))
		} else {
			clean = append(clean, name)
		}
	}
	var b strings.Builder
	b.WriteString(strconv.Itoa(r.Total))
	if r.Total == 1 {
		b.WriteString(" finding")
	} else {
		b.WriteString(" findings")
	}
	b.WriteString(" (")
	if len(hits) > 0 {
		b.WriteString(strings.Join(hits, " "))
	}
	if len(clean) > 0 {
		if len(hits) > 0 {
			b.WriteString("; ")
		}
		b.WriteString("clean: ")
		b.WriteString(strings.Join(clean, ", "))
	}
	b.WriteString(")")
	return b.String()
}
