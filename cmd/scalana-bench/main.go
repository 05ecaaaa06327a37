// Command scalana-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	scalana-bench -list              # show all experiments
//	scalana-bench -tools             # show the measurement tools
//	scalana-bench -exp table1        # one experiment
//	scalana-bench -all               # everything, in paper order
//	scalana-bench -all -parallel 4   # up to 4 experiments concurrently
//	scalana-bench -all -o results/   # also write one .txt per experiment
//
// With -parallel above 1 (or 0 for one worker per CPU), experiments
// execute concurrently on the shared sweep engine; output is still
// printed in paper order once all of them finish. Results are identical
// either way — each simulated run is deterministic.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scalana/internal/exp"

	scalana "scalana"
)

func main() {
	id := flag.String("exp", "", "experiment id (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments")
	tools := flag.Bool("tools", false, "list the measurement tools")
	outDir := flag.String("o", "", "directory to write per-experiment .txt files")
	parallel := flag.Int("parallel", 1, "experiments run concurrently (0 = one per CPU)")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *tools {
		for _, t := range scalana.Tools() {
			fmt.Printf("%-12s %s\n", t.Name, t.Description)
		}
		return
	}

	var toRun []exp.Experiment
	switch {
	case *all:
		toRun = exp.All()
	case *id != "":
		e := exp.Get(*id)
		if e == nil {
			fatalf("unknown experiment %q (try -list)", *id)
		}
		toRun = []exp.Experiment{*e}
	default:
		fatalf("one of -exp or -all is required (try -list)")
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	if *parallel == 1 {
		for _, e := range toRun {
			start := time.Now()
			res, err := e.Run()
			if err != nil {
				fatalf("%s: %v", e.ID, err)
			}
			fmt.Printf("==== %s: %s (took %.1fs) ====\n\n%s\n", res.ID, e.Title, time.Since(start).Seconds(), res.Text)
			writeResult(*outDir, res)
		}
		return
	}

	start := time.Now()
	results, err := exp.RunAll(toRun, *parallel)
	// Completed experiments are printed and written even when one failed.
	done := 0
	for i, res := range results {
		if res == nil {
			continue
		}
		fmt.Printf("==== %s: %s ====\n\n%s\n", res.ID, toRun[i].Title, res.Text)
		writeResult(*outDir, res)
		done++
	}
	if err != nil {
		fatalf("%v (%d of %d experiments completed)", err, done, len(toRun))
	}
	fmt.Printf("%d experiments in %.1fs\n", done, time.Since(start).Seconds())
}

func writeResult(outDir string, res *exp.Result) {
	if outDir == "" {
		return
	}
	path := filepath.Join(outDir, res.ID+".txt")
	if err := os.WriteFile(path, []byte(res.Text), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalana-bench: "+format+"\n", args...)
	os.Exit(1)
}
