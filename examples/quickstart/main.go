// Quickstart: the complete ScalAna pipeline on NPB-CG in ~30 lines.
//
//	go run ./examples/quickstart
//
// It compiles the program to a Program Structure Graph, profiles it at
// four job scales on the simulator, and prints the scaling-loss report.
package main

import (
	"fmt"
	"log"

	"scalana/internal/detect"
	"scalana/internal/prof"

	scalana "scalana"
)

func main() {
	app := scalana.GetApp("cg")

	// Step 1: static analysis — build the Program Structure Graph.
	prog, graph, err := scalana.Compile(app)
	if err != nil {
		log.Fatal(err)
	}
	st := graph.Stats
	fmt.Printf("PSG for %s: %d vertices -> %d after contraction (%d MPI, %d Loop)\n\n",
		app.Name, st.VerticesBefore, st.VerticesAfter, st.MPIs, st.Loops)

	// Step 2: profile across job scales (each run samples time + PMU
	// counters per vertex and records communication dependence).
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	runs, err := scalana.Sweep(app, []int{4, 8, 16, 32}, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: detect problematic vertices and backtrack to root causes.
	report, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Render(prog))
}
