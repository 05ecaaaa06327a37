package difftest

import (
	"slices"
	"sync"
	"testing"

	"scalana/internal/prof"
	"scalana/internal/synth"

	scalana "scalana"
)

// TestAppsByteIdentical holds the VM to the interpreter oracle on every
// registered workload: the NPB kernels, the three case-study apps with
// their -opt variants, and the demo programs.
func TestAppsByteIdentical(t *testing.T) {
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := DiffApp(app, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSynthCorpusByteIdentical holds the VM to the oracle on the full
// seeded synthetic-defect corpus (the same 25-case corpus the detection
// accuracy harness evaluates).
func TestSynthCorpusByteIdentical(t *testing.T) {
	corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Cases {
		app := c.App()
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := DiffApp(app, Config{Seed: corpus.Seed}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunsNeverGrowTheGraph is the other half of psg's immutability
// invariant: one compiled graph, executed by both engines at two scales
// at once, has the same vertices, VIDs and keys afterwards. CI runs this
// package under -race, so a run that wrote to the shared graph — or a
// read that needed a lock — would also be reported there.
func TestRunsNeverGrowTheGraph(t *testing.T) {
	apps := make([]*scalana.App, 0, 64)
	for _, name := range scalana.AppNames() {
		apps = append(apps, scalana.GetApp(name))
	}
	corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Cases {
		apps = append(apps, c.App())
	}
	for _, app := range apps {
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			prog, graph, err := scalana.Compile(app)
			if err != nil {
				t.Fatal(err)
			}
			vertices, vids := len(graph.Vertices), graph.NumVIDs()
			keys := append([]string(nil), graph.Keys()...)

			var wg sync.WaitGroup
			for _, np := range (Config{}).scales(app) {
				for _, useInterp := range []bool{false, true} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, _, err := profileOnce(prog, graph, app, np, prof.DefaultConfig(), corpus.Seed, useInterp); err != nil {
							t.Error(err)
						}
					}()
				}
			}
			wg.Wait()

			if len(graph.Vertices) != vertices || graph.NumVIDs() != vids || !slices.Equal(graph.Keys(), keys) {
				t.Errorf("running %s changed its graph: %d -> %d vertices, %d -> %d VIDs, keys equal: %v",
					app.Name, vertices, len(graph.Vertices), vids, graph.NumVIDs(), slices.Equal(graph.Keys(), keys))
			}
		})
	}
}
