// Command qpplint runs the repository's static-analysis rules
// (internal/analysis) over the module and prints findings as
//
//	file:line: [rule] message
//
// It is built on the standard library's go/parser + go/types only, so
// it needs no tool dependencies and runs anywhere the repo builds.
//
// It always lints the whole module with every rule:
//
//	qpplint                   # human-readable findings
//	qpplint -json > LINT.json # machine-readable report
//
// Exit status: 0 when clean, 1 when findings were reported, 2 when the
// module failed to load or type-check (or arguments were given).
//
// Suppress an individual finding with a `//qpplint:ignore <rule>`
// comment on the offending line or the line above it; the comment should
// say why the invariant does not apply. An ignore comment that
// suppresses nothing is itself reported (rule unusedignore).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qpp/internal/analysis"
)

func main() {
	asJSON := flag.Bool("json", false, "emit the findings as a JSON report on stdout")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v: qpplint always lints the whole module", flag.Args()))
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	hardErr := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "qpplint: %s: %v\n", pkg.Path, terr)
			hardErr = true
		}
	}
	if hardErr {
		os.Exit(2)
	}

	findings := analysis.CheckAll(pkgs)
	report := analysis.NewReport(root, findings)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(root, f.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	fmt.Fprintf(os.Stderr, "qpplint: %s\n", report.Summary())
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qpplint: %v\n", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
