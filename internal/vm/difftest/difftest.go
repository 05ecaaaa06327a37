// Package difftest is the differential harness that holds the bytecode
// VM to the tree-walking reference interpreter (difftest/interp), the
// semantic oracle. For a given workload the harness executes every
// pipeline stage twice — on the VM through scalana.RunCompiled, on the
// oracle by driving the same public tool lifecycle itself (runOracle) —
// and demands byte-identical ScalAna profiles at every scale (each
// communication op with its peer rank and bytes, as prof.DefaultConfig
// records every one) and byte-identical detect reports (rendered text and
// JSON). Any divergence is a VM bug by definition.
//
// Only tests import this package and the interpreter under it; CI fails
// if either shows up in the dependencies of anything that ships.
package difftest

import (
	"bytes"
	"fmt"

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
// documented tool lifecycle (scalana.ToolRun): NewToolRun, HookForRank
// as the world's hook factory, run, Finish.
func runOracle(prog *minilang.Program, graph *psg.Graph, cfg scalana.RunConfig) (mpisim.RunResult, any, error) {
	trun, err := scalana.NewToolRun(cfg, graph)
	if err != nil {
		return mpisim.RunResult{}, nil, err
	}
	wcfg := mpisim.Config{NP: cfg.NP, MemSpeed: cfg.App.MemSpeed, Seed: cfg.Seed, HookFactory: trun.HookForRank}
	res, err := mpisim.NewWorld(wcfg).RunBlocking(interp.NewRunner(prog, graph).Execute)
	if err != nil {
		return res, nil, err
	}
	data, _, err := trun.Finish()
	return res, data, err
}
