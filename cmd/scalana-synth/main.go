// Command scalana-synth generates a seeded corpus of synthetic MiniMP
// workloads with injected, labeled scaling defects, runs the full
// ScalAna pipeline over every case, and scores root-cause localization
// against the ground truth — the repo's analog of the paper's
// injected-defect accuracy evaluation.
//
// Usage:
//
//	scalana-synth -seed 1 -cases 25
//	scalana-synth -seed 1 -cases 25 -json report.json -corpus corpus.json
//	scalana-synth -archetypes imbalance,collective -np-list 4,8,16
//	scalana-synth -generate-only -corpus corpus.json
//
// Everything derives from -seed: the same seed reproduces the identical
// corpus and report byte-for-byte, run to run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"scalana/internal/scales"
	"scalana/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalana-synth: ")
	seed := flag.Int64("seed", 1, "corpus seed; equal seeds reproduce identical corpora")
	cases := flag.Int("cases", 25, "number of cases to generate")
	archetypes := flag.String("archetypes", "", "comma-separated defect archetypes (default: all of "+joinKinds()+")")
	templatesFlag := flag.String("templates", "", "comma-separated structural templates (default: all)")
	npList := flag.String("np-list", "4,8,16,32", "comma-separated job scales each case is swept across")
	topK := flag.Int("topk", 3, "cause-rank cutoff for top-k metrics")
	parallel := flag.Int("parallel", 0, "cases evaluated concurrently (0 = one per CPU)")
	hz := flag.Float64("hz", 5000, "profiler sampling frequency")
	corpusOut := flag.String("corpus", "", "write the generated corpus (with ground-truth labels) to this JSON file")
	jsonOut := flag.String("json", "", "write the scored evaluation to this JSON file ('-' for stdout)")
	genOnly := flag.Bool("generate-only", false, "generate and write the corpus without evaluating it")
	flag.Parse()
	if *parallel < 0 {
		log.Fatalf("-parallel %d: must be at least 0 (0 = one per CPU)", *parallel)
	}

	if *genOnly && *corpusOut == "" {
		log.Fatalf("-generate-only needs -corpus")
	}
	// synth.EvalConfig reads a zero SampleHz or TopK as its default.
	if !(*hz > 0) {
		log.Fatalf("-hz must be above 0, got %g", *hz)
	}
	if *topK < 1 {
		log.Fatalf("-topk must be at least 1, got %d", *topK)
	}
	gcfg := synth.GenConfig{Seed: *seed, Cases: *cases}
	if *archetypes != "" {
		for _, a := range strings.Split(*archetypes, ",") {
			gcfg.Archetypes = append(gcfg.Archetypes, synth.DefectKind(strings.TrimSpace(a)))
		}
	}
	if *templatesFlag != "" {
		for _, tn := range strings.Split(*templatesFlag, ",") {
			gcfg.Templates = append(gcfg.Templates, strings.TrimSpace(tn))
		}
	}
	corpus, err := synth.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	if *corpusOut != "" {
		if err := corpus.Save(*corpusOut); err != nil {
			log.Fatalf("save corpus: %v", err)
		}
		log.Printf("corpus (%d cases) written to %s", len(corpus.Cases), *corpusOut)
	}
	if *genOnly {
		return
	}

	ecfg := synth.EvalConfig{Parallelism: *parallel, SampleHz: *hz, TopK: *topK}
	ecfg.NPs, err = scales.Parse(*npList)
	if err != nil {
		log.Fatalf("-np-list: %v", err)
	}
	res, err := synth.Evaluate(corpus, ecfg)
	if err != nil {
		log.Fatal(err)
	}
	// With -json '-' stdout must stay parseable JSON; the rendered text
	// report moves to stderr.
	rendered := os.Stdout
	if *jsonOut == "-" {
		rendered = os.Stderr
	}
	fmt.Fprint(rendered, res.Render())
	if *jsonOut != "" {
		data, err := res.EncodeJSON()
		if err != nil {
			log.Fatalf("encode report: %v", err)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
	}
}

func joinKinds() string {
	var names []string
	for _, k := range synth.AllDefects() {
		names = append(names, string(k))
	}
	return strings.Join(names, ",")
}
