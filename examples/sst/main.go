// SST case study (paper §VI-D2).
//
//	go run ./examples/sst
//
// Diagnoses the O(n) pending-request scan in handleEvent behind SST's
// epoch-synchronization waits, shows the per-rank TOT_INS imbalance the
// PMU data exposes, and verifies the array -> map fix.
package main

import (
	"fmt"
	"log"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/machine"
	"scalana/internal/prof"

	scalana "scalana"
)

func main() {
	app := scalana.GetApp("sst")
	prog, _, err := scalana.Compile(app)
	if err != nil {
		log.Fatal(err)
	}

	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	runs, err := scalana.Sweep(app, []int{4, 8, 16, 32}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := scalana.DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render(prog))

	// PMU evidence: TOT_INS in handleEvent per rank, before and after.
	fmt.Println("\nper-rank TOT_INS in handleEvent (np=32):")
	for _, name := range []string{"sst", "sst-opt"} {
		out, err := scalana.Run(scalana.RunConfig{
			App: scalana.GetApp(name), NP: 32, ToolName: "scalana", Prof: cfg})
		if err != nil {
			log.Fatal(err)
		}
		var lo, hi, sum float64
		keys := out.PPG().PSG.Keys()
		for _, vid := range out.PPG().PresentVIDs() {
			if !strings.Contains(keys[vid], "@handleEvent") {
				continue
			}
			for _, v := range out.PPG().PMUSeries(vid, machine.TotIns) {
				if lo == 0 || v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				sum += v
			}
		}
		fmt.Printf("  %-8s min=%.3g max=%.3g total=%.3g (max/min %.1fx)\n", name, lo, hi, sum, hi/lo)
	}
}
