// Command scalana-viewer is step 4 of the ScalAna workflow (paper §V): a
// terminal rendition of the GUI in paper Fig. 9. The upper panel lists the
// diagnosed root-cause vertices with their calling paths; the lower panel
// shows the source code around each root cause.
//
// Usage:
//
//	scalana-viewer -app zeusmp -scales 8,16,32,64
//	scalana-viewer -app sst -scales 4,8,16,32 -context 3
//	scalana-viewer -app cg -scales 4,8,16 -parallel 2
//
// The report is the internal/query detect plan scalana-detect runs on
// the simulator, so the causes shown are the ones it reports: the app
// compiles once for every scale and the scales fan out across -parallel
// workers.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/query"
	"scalana/internal/scales"

	scalana "scalana"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalana-viewer: ")
	appName := flag.String("app", "", "workload name")
	scaleList := flag.String("scales", "4,8,16,32", "comma-separated rank counts")
	context := flag.Int("context", 2, "source lines of context around each root cause")
	hz := flag.Float64("hz", 1000, "sampling frequency for profiling runs")
	parallel := flag.Int("parallel", 0, "scales profiled concurrently (0 = one per CPU, 1 = one scale at a time)")
	flag.Parse()
	if *parallel < 0 {
		log.Fatalf("-parallel %d: must be at least 0 (0 = one per CPU)", *parallel)
	}
	if *context < 0 {
		log.Fatalf("-context %d: must be at least 0", *context)
	}

	app := scalana.GetApp(*appName)
	if app == nil {
		log.Fatalf("unknown app %q", *appName)
	}
	nps, err := scales.ForApp(*scaleList, app.Name, app.MinNP, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	env := query.Env{Engine: scalana.NewEngine(), Parallelism: *parallel}
	plan, err := env.Detect(query.Detect{
		App: app, Simulate: true, Scales: nps, SampleHz: *hz, Config: detect.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, _, err := plan.Run()
	if err != nil {
		log.Fatal(err)
	}
	prog, err := app.Parse()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("┌─ root cause vertices and calling paths ─ %s (np=%d) ─┐\n", app.Name, rep.NP)
	for i, c := range rep.Causes {
		var callPath []string
		for _, v := range c.Vertex.Path() {
			callPath = append(callPath, fmt.Sprintf("%s@%d", v.Kind, v.Pos.Line))
		}
		fmt.Printf("│ %d. %-6s %s:%d  score=%.3f  path: %s\n",
			i+1, c.Vertex.Kind, c.Vertex.Pos.File, c.Vertex.Pos.Line, c.Score, strings.Join(callPath, " > "))
	}
	fmt.Printf("└%s┘\n\n", strings.Repeat("─", 58))

	// Each window is clamped to the source, so a wider -context than the
	// source has lines prints the same bytes as the whole source.
	lines := strings.Split(prog.Source, "\n")
	span := min(*context, len(lines))
	for i, c := range rep.Causes {
		at := c.Vertex.Pos.Line
		fmt.Printf("── code for root cause %d (%s:%d) ──\n", i+1, c.Vertex.Pos.File, at)
		for l := max(at-span, 1); l <= min(at+span, len(lines)); l++ {
			src := lines[l-1]
			if src == "" && l != at {
				continue
			}
			marker := "  "
			if l == at {
				marker = "=>"
			}
			fmt.Printf(" %s %4d  %s\n", marker, l, src)
		}
		fmt.Println()
	}
}
