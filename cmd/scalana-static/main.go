// Command scalana-static is step 1 of the ScalAna workflow (paper §V):
// it compiles a MiniMP program and emits its Program Structure Graph.
//
// Usage:
//
//	scalana-static -app cg                # a bundled workload
//	scalana-static -file prog.mp          # any MiniMP source file
//	scalana-static -app cg -json psg.json # also write the serialized PSG
//	scalana-static -app cg -maxloopdepth 1 -contract=false
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"scalana/internal/apps"
	"scalana/internal/minilang"
	"scalana/internal/psg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalana-static: ")
	appName := flag.String("app", "", "bundled workload name (see -list)")
	file := flag.String("file", "", "MiniMP source file to analyze")
	jsonOut := flag.String("json", "", "write the serialized PSG to this file")
	maxDepth := flag.Int("maxloopdepth", 10, "MaxLoopDepth contraction parameter")
	contract := flag.Bool("contract", true, "enable graph contraction")
	list := flag.Bool("list", false, "list bundled workloads")
	flag.Parse()
	if *maxDepth < 1 {
		log.Fatalf("-maxloopdepth %d: want a depth of 1 or more", *maxDepth)
	}

	if *list {
		for _, n := range apps.Names() {
			fmt.Printf("%-26s %s\n", n, apps.Get(n).Description)
		}
		return
	}

	var prog *minilang.Program
	var err error
	switch {
	case *appName != "":
		app := apps.Get(*appName)
		if app == nil {
			log.Fatalf("unknown app %q (try -list)", *appName)
		}
		prog, err = app.Parse()
	case *file != "":
		data, rerr := os.ReadFile(*file)
		if rerr != nil {
			log.Fatalf("%v", rerr)
		}
		prog, err = minilang.Parse(*file, string(data))
	default:
		log.Fatalf("one of -app or -file is required")
	}
	if err != nil {
		log.Fatalf("compile: %v", err)
	}

	g, err := psg.Build(prog, psg.Options{MaxLoopDepth: *maxDepth, Contract: *contract})
	if err != nil {
		log.Fatalf("PSG: %v", err)
	}
	st := g.Stats
	fmt.Printf("Program Structure Graph for %s\n", prog.File)
	fmt.Printf("vertices: %d before contraction, %d after (%d Loop, %d Branch, %d Comp, %d MPI, %d Call)\n\n",
		st.VerticesBefore, st.VerticesAfter, st.Loops, st.Branches, st.Comps, st.MPIs, st.Calls)
	fmt.Print(g.Render())

	if *jsonOut != "" {
		data, err := json.MarshalIndent(g.ToDTO(), "", " ")
		if err != nil {
			log.Fatalf("serialize: %v", err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatalf("write: %v", err)
		}
		fmt.Printf("\nPSG written to %s\n", *jsonOut)
	}
}
