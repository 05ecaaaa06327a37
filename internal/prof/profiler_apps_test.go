package prof_test

// The profiler's differential test: every bundled app and the synthetic
// corpus run once under prof.Profiler (the "scalana" tool) and once under
// the map-based reference it replaced, attached to a world built the way
// scalana.RunCompiled builds one; the two profile sets must encode to the
// same bytes.

import (
	"bytes"
	"testing"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/synth"
	"scalana/internal/vm"

	scalana "scalana"
)

// oracleProfiles runs app at np on the VM with the map-based profiler as
// every rank's hook and returns the run's profile set.
func oracleProfiles(t *testing.T, e *scalana.Engine, app *scalana.App, np int, pcfg prof.Config) *prof.ProfileSet {
	t.Helper()
	prog, graph, err := e.Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := graph.CompileExec(func() (any, error) { return vm.Compile(prog, graph) })
	if err != nil {
		t.Fatal(err)
	}
	profilers := make([]prof.OracleProfiler, np)
	wcfg := mpisim.Config{NP: np, Seed: pcfg.Seed, HookFactory: func(rank int) []mpisim.Hook {
		profilers[rank] = prof.NewOracleProfiler(pcfg, graph, rank, np)
		return []mpisim.Hook{profilers[rank]}
	}}
	if app.CoreConfig != nil {
		wcfg.Core = app.CoreConfig(np)
	}
	runner := vm.NewRunner(code.(*vm.Program))
	runner.OnIndirect = func(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
		profilers[rank].ObserveIndirect(rank, inst, site, target)
	}
	res, err := mpisim.NewWorld(wcfg).Run(runner.Stepper(np))
	if err != nil {
		t.Fatalf("%s np=%d under the oracle: %v", app.Name, np, err)
	}
	ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: res.Elapsed, Profiles: make([]*prof.RankProfile, np)}
	for rank, pr := range profilers {
		ps.Profiles[rank] = pr.Profile()
	}
	return ps
}

// checkProfilerAgainstOracle runs app at np under both profilers.
func checkProfilerAgainstOracle(t *testing.T, e *scalana.Engine, app *scalana.App, np int, pcfg prof.Config) {
	t.Helper()
	out, err := e.Run(scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pcfg, Seed: pcfg.Seed})
	if err != nil {
		t.Fatalf("%s np=%d: %v", app.Name, np, err)
	}
	encode := func(ps *prof.ProfileSet) []byte {
		data, err := prof.EncodeProfileSet(ps)
		if err != nil {
			t.Fatalf("%s np=%d: %v", app.Name, np, err)
		}
		return data
	}
	got := encode(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: out.Profiles()})
	want := encode(oracleProfiles(t, e, app, np, pcfg))
	if !bytes.Equal(got, want) {
		t.Errorf("%s np=%d: profiler and map-based oracle wrote different profile sets (%d vs %d bytes)", app.Name, np, len(got), len(want))
	}
}

func TestProfilerMatchesOracle(t *testing.T) {
	e := scalana.NewEngine()
	sampled := prof.DefaultConfig()
	sampled.CommSampleProb, sampled.Seed = 0.5, 7
	uncompressed := prof.DefaultConfig()
	uncompressed.Compress = false
	for _, name := range scalana.AppNames() {
		app := scalana.GetApp(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, np := range []int{max(app.MinNP, 4), max(2*app.MinNP, 16)} {
				checkProfilerAgainstOracle(t, e, app, np, prof.DefaultConfig())
			}
			checkProfilerAgainstOracle(t, e, app, max(app.MinNP, 4), sampled)
			checkProfilerAgainstOracle(t, e, app, max(app.MinNP, 4), uncompressed)
		})
	}
	t.Run("synth", func(t *testing.T) {
		corpus, err := synth.Generate(synth.GenConfig{Seed: 1, Cases: 25})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corpus.Cases {
			checkProfilerAgainstOracle(t, e, c.App(), max(c.MinNP, 8), prof.DefaultConfig())
		}
	})
}
