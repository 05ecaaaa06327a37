// Command scalana-detect is step 3 of the ScalAna workflow (paper §V): it
// profiles an application across job scales, assembles Program Performance
// Graphs, detects problematic vertices, and runs backtracking root cause
// detection.
//
// Usage:
//
//	scalana-detect -app zeusmp -scales 8,16,32,64
//	scalana-detect -app zeusmp -scales 8,16,32,64 -parallel 4
//	scalana-detect -app cg -scales 4,8,16 -abnorm-thd 1.5 -profiles dir/
//	scalana-detect -app zeusmp -scales 8,16,32 -expect-cause bval3d
//	scalana-detect -app cg -scales 4,8,16 -json report.json
//	scalana-detect -app cg -store /var/lib/scalana
//
// With -expect-cause, the command exits non-zero unless some reported
// root cause matches the substring (vertex key, name, or file:line) —
// and, in particular, whenever the report contains no causes at all —
// so CI gates and scripts can assert detection results directly.
//
// The app is compiled once for the whole sweep and the scales execute
// concurrently on -parallel workers (0 = one per CPU, 1 = one scale at
// a time). Each scale simulates and finalizes its ranks on its worker's
// goroutine, starting none of its own. The report is identical
// regardless of parallelism.
//
// With -profiles, previously saved scalana-prof outputs named
// <app>.<np>.json are loaded from the directory instead of re-running.
// With -store, profile sets come from a scalana-serve content-addressed
// store instead; each requested scale must resolve to exactly one
// stored set, and without -scales every stored scale is used.
//
// Every mode is one internal/query detect plan — the same one
// scalana-serve runs for POST /v1/detect — and -json writes the plan's
// canonical bytes, so CLI and served output are identical by
// construction.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/query"
	"scalana/internal/scales"
	"scalana/internal/store"

	scalana "scalana"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalana-detect: ")
	appName := flag.String("app", "", "workload name")
	scaleList := flag.String("scales", "4,8,16,32", "comma-separated rank counts (with -store, default: every stored scale)")
	hz := flag.Float64("hz", 1000, "sampling frequency for profiling runs")
	abnormThd := flag.Float64("abnorm-thd", 1.3, "AbnormThd detection parameter")
	topK := flag.Int("topk", 10, "maximum non-scalable vertices reported")
	profilesDir := flag.String("profiles", "", "directory of saved scalana-prof outputs")
	storeDir := flag.String("store", "", "scalana-serve profile store to load sets from")
	parallel := flag.Int("parallel", 0, "scales profiled concurrently (0 = one per CPU, 1 = one scale at a time)")
	expectCause := flag.String("expect-cause", "", "exit non-zero unless a reported root cause matches this substring")
	commCauses := flag.Bool("comm-causes", false, "admit non-scalable collectives as root-cause candidates (detect.Config.CommCauses)")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file ('-' for stdout)")
	flag.Parse()
	if *parallel < 0 {
		log.Fatalf("-parallel %d: must be at least 0 (0 = one per CPU)", *parallel)
	}

	app := scalana.GetApp(*appName)
	if app == nil {
		log.Fatalf("unknown app %q", *appName)
	}
	if *profilesDir != "" && *storeDir != "" {
		log.Fatalf("-profiles and -store are mutually exclusive")
	}
	env := query.Env{Engine: scalana.NewEngine(), Parallelism: *parallel}
	var err error
	if *storeDir != "" {
		if env.Store, err = store.Open(*storeDir); err != nil {
			log.Fatal(err)
		}
	}
	// With -json '-' stdout must stay parseable JSON; the rendered text
	// report moves to stderr.
	rendered := os.Stdout
	if *jsonOut == "-" {
		rendered = os.Stderr
	}

	q := query.Detect{
		App: app, Simulate: *storeDir == "" && *profilesDir == "", ProfilesDir: *profilesDir,
		SampleHz: *hz, Config: detect.DefaultConfig(),
	}
	q.Config.AbnormThd, q.Config.TopK, q.Config.CommCauses = *abnormThd, *topK, *commCauses
	// The store source defaults to every stored scale, as POST /v1/detect
	// does; the 4,8,16,32 default is for runs that choose their scales.
	scalesSet := env.Store == nil
	flag.Visit(func(f *flag.Flag) { scalesSet = scalesSet || f.Name == "scales" })
	if scalesSet {
		if q.Scales, err = scales.ForApp(*scaleList, app.Name, app.MinNP, log.Printf); err != nil {
			log.Fatal(err)
		}
	}
	plan, err := env.Detect(q)
	if err != nil {
		log.Fatal(err)
	}
	rep, data, err := plan.Run()
	if err != nil {
		log.Fatal(err)
	}
	prog, err := app.Parse()
	if err != nil {
		prog = nil
	}
	fmt.Fprint(rendered, rep.Render(prog))
	// -json writes the exact bytes scalana-serve answers the same query with.
	switch *jsonOut {
	case "":
	case "-":
		os.Stdout.Write(data)
	default:
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
	}

	if *expectCause != "" {
		if len(rep.Causes) == 0 {
			log.Fatalf("expectation %q not met: the report contains no root causes at all", *expectCause)
		}
		if !causeMatches(rep, *expectCause) {
			log.Fatalf("expectation %q not met: none of the %d reported causes match (top cause: %s)",
				*expectCause, len(rep.Causes), describeCause(&rep.Causes[0]))
		}
		log.Printf("expectation %q met", *expectCause)
	}
}

// causeMatches reports whether any reported root cause matches the
// substring by vertex key, vertex name, or source position.
func causeMatches(rep *detect.Report, substr string) bool {
	for i := range rep.Causes {
		if strings.Contains(describeCause(&rep.Causes[i]), substr) {
			return true
		}
	}
	return false
}

func describeCause(c *detect.Cause) string {
	if c.Vertex == nil {
		return c.VertexKey
	}
	return fmt.Sprintf("%s %s %s at %s:%d", c.VertexKey, c.Vertex.Kind, c.Vertex.Name, c.Vertex.Pos.File, c.Vertex.Pos.Line)
}
