package prof_test

// The profiler's differential test: every bundled app and the synthetic
// corpus run once under prof.Profiler (the "scalana" tool) and once under
// the map-based reference it replaced, registered here as a measurement
// tool like any external one; the two profile sets must encode to the
// same bytes.

import (
	"bytes"
	"testing"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/synth"

	scalana "scalana"
)

const oracleToolName = "scalana-map-oracle"

type oracleTool struct{}

func (oracleTool) Name() string        { return oracleToolName }
func (oracleTool) Description() string { return "test reference: the map-based ScalAna profiler" }

func (oracleTool) NewRun(tc scalana.ToolContext) (scalana.ToolRun, error) {
	return &oracleRun{tc: tc, profilers: make([]prof.OracleProfiler, tc.Config.NP)}, nil
}

type oracleRun struct {
	tc        scalana.ToolContext
	profilers []prof.OracleProfiler
}

func (r *oracleRun) HooksForRank(rank int) []mpisim.Hook {
	r.profilers[rank] = prof.NewOracleProfiler(r.tc.Config.Prof, r.tc.Graph, rank, r.tc.Config.NP)
	return []mpisim.Hook{r.profilers[rank]}
}

func (r *oracleRun) FinalizeRank(rank int) int64 {
	return r.profilers[rank].Profile().StorageBytes()
}

func (r *oracleRun) Finish() (any, error) {
	profiles := make([]*prof.RankProfile, len(r.profilers))
	for rank, pr := range r.profilers {
		profiles[rank] = pr.Profile()
	}
	return profiles, nil
}

func (r *oracleRun) ObserveIndirect(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
	r.profilers[rank].ObserveIndirect(rank, inst, site, target)
}

func init() { scalana.RegisterTool(oracleTool{}) }

// checkProfilerAgainstOracle runs app at np under both profilers.
func checkProfilerAgainstOracle(t *testing.T, e *scalana.Engine, app *scalana.App, np int, pcfg prof.Config) {
	t.Helper()
	encode := func(tool string) []byte {
		out, err := e.Run(scalana.RunConfig{App: app, NP: np, ToolName: tool, Prof: pcfg, Seed: pcfg.Seed})
		if err != nil {
			t.Fatalf("%s np=%d under %s: %v", app.Name, np, tool, err)
		}
		profiles, ok := out.Measurement.Data().([]*prof.RankProfile)
		if !ok {
			profiles = out.Profiles()
		}
		data, err := prof.EncodeProfileSet(&prof.ProfileSet{App: app.Name, NP: np, Elapsed: out.Result.Elapsed, Profiles: profiles})
		if err != nil {
			t.Fatalf("%s np=%d under %s: %v", app.Name, np, tool, err)
		}
		return data
	}
	got, want := encode("scalana"), encode(oracleToolName)
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
