// Command scalana-lint runs the invariant analyzers of internal/analysis
// over Go packages. It is the machine-checked form of the contracts
// DESIGN.md §12 catalogues: deterministic wire output (maporder), the
// virtual-time-only simulator core (walltime), seeded randomness
// (seededrand), and the //scalana:hot allocation contract (hotpath).
//
//	scalana-lint ./...              # lint the whole module
//	scalana-lint -list              # describe the analyzers
//	scalana-lint -json ./internal/prof
//
// Exit status is 0 when the tree is clean, 1 on usage or load errors,
// and 2 when diagnostics were reported (matching go vet's convention).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"scalana/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scalana-lint [-json] packages...\n       scalana-lint -list\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(1)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		root = cwd
	}
	pkgs, err := analysis.Load(root, args...)
	if err != nil {
		fatalf("%v", err)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := analysis.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fatalf("%v", err)
		}
		diags = append(diags, ds...)
	}
	analysis.SortDiagnostics(diags)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(diags); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s\n", d)
		}
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalana-lint: "+format+"\n", args...)
	os.Exit(1)
}
