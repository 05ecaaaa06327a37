// Command scalana-e2e runs one workload of the repository's benchmark,
// or compares two sets of its results.
//
//	scalana-e2e --workload sweep-zeusmp --seed 1 --seconds 15 --trace 0 [-out results.jsonl]
//	scalana-e2e -compare A.jsonl B.jsonl
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. bench/run.sh builds and
// runs this command from the repository root.
package main

import (
	"flag"
	"fmt"
	"os"

	"scalana/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(bench.WorkloadNames()))
	seed := flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 15, "sizes the fixed op count: base count × seconds/30")
	trace := flag.Int("trace", 0, "1 records spans around each layer and reports the per-layer metrics")
	out := flag.String("out", "", "append the result, with its header, to this result file")
	updateGolden := flag.String("update-golden", "", "write the run's output digests to this directory as the seed's goldens")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	res, err := bench.Run(bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		TraceDir: "bench/out", UpdateGolden: *updateGolden, Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := res.AppendTo(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	line, err := res.DriverLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// runCompare reads the bounds from BENCHMARK.json in the working
// directory: run.sh runs this command from the repository root.
func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: scalana-e2e -compare A.jsonl B.jsonl")
		return 2
	}
	m, err := bench.LoadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := bench.LoadResults(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := bench.LoadResults(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	worse, err := bench.Compare(os.Stdout, m, a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}
