package detect_test

// The writer-vs-oracle property on reports the pipeline writes: every
// bundled app and the synth corpus, swept and detected. internal/detect
// cannot import the root package, so this lives in the external test
// package and reaches encodeOracle through export_test.go.

import (
	"bytes"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/par"
	"scalana/internal/prof"
	"scalana/internal/synth"

	scalana "scalana"
)

func checkAgainstOracle(t *testing.T, name string, rep *detect.Report) {
	t.Helper()
	got, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.EncodeOracle(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: writer and oracle differ:\n--- writer ---\n%s\n--- oracle ---\n%s", name, got, want)
	}
}

func TestEncodeMatchesOracle(t *testing.T) {
	checkAgainstOracle(t, "seed report", detect.FuzzSeedReport())
	e := scalana.NewEngine()

	t.Run("apps", func(t *testing.T) {
		for _, name := range scalana.AppNames() {
			app := scalana.GetApp(name)
			nps := []int{max(app.MinNP, 4), max(2*app.MinNP, 16)}
			runs, err := e.Sweep(app, nps, scalana.SweepConfig{Prof: prof.DefaultConfig()})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := detect.Detect(runs, detect.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, name, rep)
		}
	})
	// The reports the accuracy harness writes: 200 cases a seed, swept at
	// its default scales and rate, detected with its configuration.
	cfg := synth.DefaultEvalConfig()
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = cfg.SampleHz
	for _, seed := range []int64{1, 7} {
		corpus, err := synth.Generate(synth.GenConfig{Seed: seed, Cases: 200})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := par.MapErr(len(corpus.Cases), 0, func(i int) (*detect.Report, error) {
			c := corpus.Cases[i]
			runs, err := e.Sweep(c.App(), cfg.NPs, scalana.SweepConfig{Parallelism: 1, Prof: pcfg, Seed: seed})
			if err != nil {
				return nil, err
			}
			return detect.Detect(runs, cfg.Detect)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			checkAgainstOracle(t, corpus.Cases[i].Name, rep)
		}
	}
}
