package prof_test

// The differential test's real-profile half: sets written by simulated
// runs of every bundled app and of the synthetic corpus, plus the
// committed pre-VID fixtures. internal/prof cannot import the root
// package, so these live in the external test package and reach
// decodeOracle through export_test.go.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/synth"

	scalana "scalana"
)

// simulatedSet runs app at np under the profiler and returns the wire
// bytes of its profile set with the graph they decode against.
func simulatedSet(tb testing.TB, e *scalana.Engine, app *scalana.App, np int) (*psg.Graph, []byte) {
	tb.Helper()
	_, graph, err := e.Compile(app, psg.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	out, err := e.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: prof.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()})
	if err != nil {
		tb.Fatal(err)
	}
	return graph, data
}

func TestDecodeMatchesOracleOnRealProfiles(t *testing.T) {
	e := scalana.NewEngine()
	check := func(t *testing.T, graph *psg.Graph, data []byte) {
		t.Helper()
		if skipped := prof.CheckAgainstOracle(t, data, graph); skipped != "" {
			t.Fatalf("a written profile set fell in the %q skip class", skipped)
		}
		if _, err := prof.DecodeProfileSet(data, graph); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("fixtures", func(t *testing.T) {
		_, graph, err := e.Compile(scalana.GetApp("cg"), psg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{4, 8} {
			data, err := os.ReadFile(filepath.Join("..", "..", "testdata", fmt.Sprintf("cg.%d.json", np)))
			if err != nil {
				t.Fatal(err)
			}
			check(t, graph, data)
		}
	})
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, np := range []int{max(app.MinNP, 4), max(2*app.MinNP, 16)} {
				graph, data := simulatedSet(t, e, app, np)
				check(t, graph, data)
			}
		})
	}
	t.Run("synth", func(t *testing.T) {
		corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corpus.Cases {
			graph, data := simulatedSet(t, e, c.App(), max(c.MinNP, 8))
			check(t, graph, data)
		}
	})
}

// BenchmarkDecodeProfileSet is the read half of a served detect on its
// largest common input: one zeusmp np=256 set, wire bytes to dense
// profiles (compare ppg.BenchmarkBuild, the stage that consumes them).
func BenchmarkDecodeProfileSet(b *testing.B) {
	graph, data := simulatedSet(b, scalana.NewEngine(), scalana.GetApp("zeusmp"), 256)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.DecodeProfileSet(data, graph); err != nil {
			b.Fatal(err)
		}
	}
}
