// Command scalana-prof is step 2 of the ScalAna workflow (paper §V): it
// runs an instrumented application at one scale and collects per-rank
// measurement data with the selected tool. The default tool is the
// ScalAna graph-based profiler (sampled performance vectors plus
// compressed communication dependence); -tool attaches one of the others
// instead: the tracing and call-path baselines or the comm-matrix
// collector (-list-tools).
//
// Usage:
//
//	scalana-prof -app cg -np 64 -o cg.64.json
//	scalana-prof -app zeusmp -np 128 -hz 1000 -o zeusmp.128.json
//	scalana-prof -app cg -np 32 -tool commmatrix
//	scalana-prof -list-tools
package main

import (
	"flag"
	"fmt"
	"os"

	"scalana/internal/commmatrix"
	"scalana/internal/prof"
	"scalana/internal/report"

	scalana "scalana"
)

func main() {
	appName := flag.String("app", "", "workload name (scalana-static -list shows all)")
	np := flag.Int("np", 16, "number of simulated MPI ranks")
	tool := flag.String("tool", "scalana", "measurement tool (see -list-tools)")
	listTools := flag.Bool("list-tools", false, "list the measurement tools and exit")
	hz := flag.Float64("hz", 200, "sampling frequency (the paper uses 200 Hz)")
	commProb := flag.Float64("comm-prob", 1.0, "communication instrumentation sampling probability")
	compress := flag.Bool("compress", true, "graph-guided communication compression")
	out := flag.String("o", "", "write the profile set to this JSON file (scalana tool only)")
	seed := flag.Int64("seed", 0, "simulation seed")
	flag.Parse()

	if *listTools {
		for _, t := range scalana.Tools() {
			fmt.Printf("%-12s %s\n", t.Name, t.Description)
		}
		return
	}

	app := scalana.GetApp(*appName)
	if app == nil {
		fatalf("unknown app %q", *appName)
	}
	cfg := prof.DefaultConfig()
	cfg.SampleHz = *hz
	cfg.CommSampleProb = *commProb
	cfg.Compress = *compress
	cfg.Seed = *seed

	res, err := scalana.Run(scalana.RunConfig{
		App: app, NP: *np, ToolName: *tool, Prof: cfg, Seed: *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("ran %s with %d ranks: %.4fs virtual time\n", app.Name, *np, res.Result.Elapsed)
	fmt.Printf("%s storage: %s across %d ranks (%s per rank)\n", *tool,
		report.Bytes(res.StorageBytes()), *np, report.Bytes(res.StorageBytes()/int64(*np)))
	if pg := res.PPG(); pg != nil {
		fmt.Printf("dependence edges: %d\n", pg.NumEdges())
	}
	if m, ok := res.Data.(*commmatrix.Matrix); ok {
		fmt.Printf("p2p traffic: %s total\n", report.Bytes(int64(m.TotalBytes())))
		for _, f := range m.TopFlows(5) {
			fmt.Printf("  rank %3d <-> %3d  %8s in %d msgs\n", f.Src, f.Dst, report.Bytes(int64(f.Bytes)), f.Msgs)
		}
	}

	if *out != "" {
		profiles := res.Profiles()
		if profiles == nil {
			fatalf("-o needs the scalana tool's profiles; tool %q produces none", *tool)
		}
		ps := &prof.ProfileSet{App: app.Name, NP: *np, Elapsed: res.Result.Elapsed, Profiles: profiles}
		if err := ps.Save(*out); err != nil {
			fatalf("save: %v", err)
		}
		fmt.Printf("profiles written to %s\n", *out)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scalana-prof: "+format+"\n", args...)
	os.Exit(1)
}
