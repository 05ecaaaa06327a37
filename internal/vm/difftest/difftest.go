// Package difftest is the differential harness that holds the bytecode
// VM to the tree-walking reference interpreter (difftest/interp), the
// semantic oracle. For a given workload the harness executes every
// pipeline stage twice — on the VM through scalana.RunCompiled, on the
// oracle by driving the same public tool lifecycle itself (runOracle) —
// and demands byte-identical ScalAna profiles at every scale,
// byte-identical detect reports (rendered text and JSON), and identical
// communication matrices. Any divergence is a VM bug by definition.
//
// Only tests import this package and the interpreter under it; CI fails
// if either shows up in the dependencies of anything that ships.
package difftest

import (
	"bytes"
	"fmt"
	"reflect"

	"scalana/internal/commmatrix"
	"scalana/internal/detect"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/vm/difftest/interp"

	scalana "scalana"
)

// Config configures one differential comparison.
type Config struct {
	// NPs are the job scales swept (scales below the app's MinNP are
	// dropped; default 4 and 8, small enough for CI).
	NPs []int
	// SampleHz overrides the profiler sampling rate (0 = prof default).
	SampleHz float64
	// Seed seeds both executions identically.
	Seed int64
}

func (cfg Config) scales(app *scalana.App) []int {
	nps := cfg.NPs
	if len(nps) == 0 {
		nps = []int{4, 8}
	}
	var out []int
	for _, np := range nps {
		if np >= app.MinNP {
			out = append(out, np)
		}
	}
	if len(out) == 0 {
		out = []int{app.MinNP}
	}
	return out
}

// DiffApp runs the app through both execution engines and returns an
// error describing the first divergence, or nil when the interpreter and
// the VM agree byte-for-byte.
func DiffApp(app *scalana.App, cfg Config) error {
	nps := cfg.scales(app)
	prog, graph, err := scalana.Compile(app)
	if err != nil {
		return err
	}
	profCfg := prof.DefaultConfig()
	if cfg.SampleHz != 0 {
		profCfg.SampleHz = cfg.SampleHz
	}

	// Profile at every scale on both engines, comparing the encoded
	// profile sets, and keep each engine's PPGs for detection.
	runsByMode := [2][]detect.ScaleRun{}
	for _, np := range nps {
		var encoded [2][]byte
		for mode := 0; mode < 2; mode++ {
			pg, enc, err := profileOnce(prog, graph, app, np, profCfg, cfg.Seed, mode == 1)
			if err != nil {
				return err
			}
			encoded[mode] = enc
			runsByMode[mode] = append(runsByMode[mode], detect.ScaleRun{NP: np, PPG: pg})
		}
		if !bytes.Equal(encoded[0], encoded[1]) {
			return fmt.Errorf("%s np=%d: VM and interpreter profiles diverge:\n--- vm ---\n%s\n--- interp ---\n%s",
				app.Name, np, encoded[0], encoded[1])
		}
	}

	// The full detect stage must agree too: same report text, same JSON.
	dcfg := detect.DefaultConfig()
	dcfg.CommCauses = true
	var renders [2]string
	var jsons [2][]byte
	for mode := 0; mode < 2; mode++ {
		rep, err := scalana.DetectScalingLoss(runsByMode[mode], dcfg)
		if err != nil {
			return fmt.Errorf("%s (interp=%v): detect: %w", app.Name, mode == 1, err)
		}
		renders[mode] = rep.Render(prog)
		jsons[mode], err = rep.EncodeJSON()
		if err != nil {
			return fmt.Errorf("%s (interp=%v): encode report: %w", app.Name, mode == 1, err)
		}
	}
	if renders[0] != renders[1] {
		return fmt.Errorf("%s: VM and interpreter detect reports diverge:\n--- vm ---\n%s\n--- interp ---\n%s",
			app.Name, renders[0], renders[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		return fmt.Errorf("%s: VM and interpreter detect report JSON diverges:\n--- vm ---\n%s\n--- interp ---\n%s",
			app.Name, jsons[0], jsons[1])
	}

	// Communication matrices at the smallest scale.
	var mats [2]*commmatrix.Matrix
	for mode := 0; mode < 2; mode++ {
		_, data, err := run(prog, graph, scalana.RunConfig{
			App: app, NP: nps[0], ToolName: "commmatrix", Seed: cfg.Seed,
		}, mode == 1)
		if err != nil {
			return fmt.Errorf("comm matrix run: %w", err)
		}
		m, ok := data.(*commmatrix.Matrix)
		if !ok {
			return fmt.Errorf("%s: commmatrix tool produced %T, want *commmatrix.Matrix", app.Name, data)
		}
		mats[mode] = m
	}
	if mats[0].NP != mats[1].NP ||
		!reflect.DeepEqual(mats[0].Bytes, mats[1].Bytes) ||
		!reflect.DeepEqual(mats[0].Msgs, mats[1].Msgs) {
		return fmt.Errorf("%s np=%d: VM and interpreter comm matrices diverge (vm total %g bytes, interp total %g bytes)",
			app.Name, nps[0], mats[0].TotalBytes(), mats[1].TotalBytes())
	}
	return nil
}

// profileOnce runs one profiled execution on the chosen engine and
// returns its PPG plus the canonical encoding of its profile set.
func profileOnce(prog *minilang.Program, graph *psg.Graph, app *scalana.App, np int, profCfg prof.Config, seed int64, oracle bool) (*ppg.Graph, []byte, error) {
	res, data, err := run(prog, graph, scalana.RunConfig{
		App: app, NP: np, ToolName: "scalana", Prof: profCfg, Seed: seed,
	}, oracle)
	if err != nil {
		return nil, nil, err
	}
	d, ok := data.(*scalana.ScalAnaData)
	if !ok {
		return nil, nil, fmt.Errorf("%s: scalana tool produced %T, want *scalana.ScalAnaData", app.Name, data)
	}
	ps := &prof.ProfileSet{App: app.Name, NP: np, Elapsed: res.Elapsed, Profiles: d.Profiles}
	enc, err := ps.Encode()
	if err != nil {
		return nil, nil, fmt.Errorf("%s np=%d (interp=%v): encode profiles: %w", app.Name, np, oracle, err)
	}
	return d.PPG, enc, nil
}

// run executes cfg on the VM (scalana.RunCompiled) or on the oracle and
// returns the simulator result with the tool's payload.
func run(prog *minilang.Program, graph *psg.Graph, cfg scalana.RunConfig, oracle bool) (mpisim.RunResult, any, error) {
	if oracle {
		res, data, err := runOracle(prog, graph, cfg)
		if err != nil {
			return res, nil, fmt.Errorf("%s np=%d (interp): %w", cfg.App.Name, cfg.NP, err)
		}
		return res, data, nil
	}
	out, err := scalana.RunCompiled(prog, graph, cfg)
	if err != nil {
		return mpisim.RunResult{}, nil, fmt.Errorf("%s np=%d (vm): %w", cfg.App.Name, cfg.NP, err)
	}
	return out.Result, out.Data, nil
}

// runOracle executes cfg on the tree-walking interpreter. It is what
// scalana.RunCompiled does around the VM, written against the same
// documented tool lifecycle (scalana.ToolRun): NewToolRun, HooksForRank
// as the world's hook factory, run, FinalizeRank per rank, Finish.
func runOracle(prog *minilang.Program, graph *psg.Graph, cfg scalana.RunConfig) (mpisim.RunResult, any, error) {
	trun, err := scalana.NewToolRun(cfg, graph)
	if err != nil {
		return mpisim.RunResult{}, nil, err
	}
	wcfg := mpisim.Config{NP: cfg.NP, Seed: cfg.Seed, HookFactory: trun.HooksForRank}
	if cfg.App.CoreConfig != nil {
		wcfg.Core = cfg.App.CoreConfig(cfg.NP)
	}
	runner := interp.NewRunner(prog, graph)
	if obs, ok := trun.(scalana.IndirectObserver); ok {
		runner.OnIndirect = obs.ObserveIndirect
	}
	res, err := mpisim.NewWorld(wcfg).RunBlocking(runner.Execute)
	if err != nil {
		return res, nil, err
	}
	for r := 0; r < cfg.NP; r++ {
		trun.FinalizeRank(r)
	}
	data, err := trun.Finish()
	return res, data, err
}
