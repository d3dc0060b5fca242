package qperf_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docPathRE matches the repository paths the prose documents cite:
// commands, scripts, internal packages (optionally one of their .go
// files), examples, and root JSON artifacts (which are the only
// upper-case *.json names the documents use). Globs and brace lists
// (`BENCH_*.json`, `internal/exec/{a,b}.go`) match at most their
// directory prefix: a decision record may list what it removed that way.
var docPathRE = regexp.MustCompile(
	`\b(?:cmd|examples)/[a-z0-9_]+` +
		`|\bscripts/[a-z0-9_]+\.sh` +
		`|\binternal/[a-z0-9_]+(?:/[a-z0-9_]+\.go)?` +
		`|\b[A-Z][A-Za-z0-9_]*\.json\b`)

// TestDocsCiteExistingPaths fails when a document names a command,
// script, package, file or artifact that is not in the checkout — the
// way README.md went on describing a deleted executor option for two
// PRs.
func TestDocsCiteExistingPaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, path := range docPathRE.FindAllString(line, -1) {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d cites %s, which is not in the checkout", doc, i+1, path)
				}
			}
		}
	}
}
