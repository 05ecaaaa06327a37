// Package scalana is a Go reproduction of ScalAna (Jin et al., SC 2020):
// automated scaling-loss detection for message-passing programs with graph
// analysis at profiling-level overhead.
//
// The pipeline mirrors the paper's four user steps (§V):
//
//	prog, graph, _ := scalana.Compile(app)            // scalana-static
//	out, _ := scalana.Run(scalana.RunConfig{...})     // scalana-prof
//	runs, _ := scalana.Sweep(app, []int{4,...,128})   // one run per scale
//	report, _ := scalana.DetectScalingLoss(runs, cfg) // scalana-detect
//
// Compile builds the Program Structure Graph from MiniMP source with
// intra-/inter-procedural analysis and contraction. Run executes the
// program on the deterministic MPI simulator with the selected measurement
// tool attached (the ScalAna profiler, or the tracing/profiling baselines
// used for comparison). DetectScalingLoss assembles Program Performance
// Graphs, finds non-scalable and abnormal vertices, and runs backtracking
// root-cause detection.
package scalana

import (
	"fmt"
	"math"

	"scalana/internal/apps"
	"scalana/internal/detect"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

// App re-exports the workload type.
type App = apps.App

// GetApp looks up a registered workload (NPB kernels, zeusmp, sst,
// nekbone, and their -opt variants).
func GetApp(name string) *App { return apps.Get(name) }

// AppNames lists all registered workloads.
func AppNames() []string { return apps.Names() }

// EvaluationNames lists the programs of the paper's evaluation in Table II
// order: the NPB suite plus SST, Nekbone, and Zeus-MP.
func EvaluationNames() []string { return apps.EvaluationNames() }

// Compile parses the app and builds its contracted PSG (the
// scalana-static step).
func Compile(app *App) (*minilang.Program, *psg.Graph, error) {
	return compile(app, psg.DefaultOptions())
}

// compile is Compile with explicit PSG options.
func compile(app *App, opts psg.Options) (*minilang.Program, *psg.Graph, error) {
	prog, err := app.Parse()
	if err != nil {
		return nil, nil, fmt.Errorf("scalana: parse %s: %w", app.Name, err)
	}
	graph, err := psg.Build(prog, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("scalana: build PSG for %s: %w", app.Name, err)
	}
	return prog, graph, nil
}

// RunConfig configures one profiled execution.
type RunConfig struct {
	App *App
	NP  int
	// ToolName selects a measurement tool by name: "scalana", "tracer",
	// "hpctk" or "commmatrix" (see Tools). Empty runs the application
	// bare (the overhead baseline).
	ToolName string
	// Prof configures the ScalAna profiler (zero value = paper defaults).
	Prof prof.Config
	// Seed makes runs reproducible; runs with equal seeds are identical.
	Seed int64
}

// RunOutput is the result of one execution.
type RunOutput struct {
	App *App
	NP  int
	// Tool is the attached tool's name ("" for a bare run).
	Tool   string
	Result mpisim.RunResult
	Graph  *psg.Graph
	// Data is the attached tool's payload (nil for a bare run): a
	// *ScalAnaData for "scalana", []*trace.RankTrace for "tracer",
	// []*hpctk.RankProfile for "hpctk", *commmatrix.Matrix for
	// "commmatrix".
	Data any
	// storage is the tool's measurement-data size summed over ranks.
	storage int64
}

// Profiles returns the per-rank ScalAna profiles ("scalana" tool runs
// only). They are read-only: each rank's Vertex is its row of PPG().Perf
// (ScalAnaData), so copy a Vertex before perturbing it.
func (o *RunOutput) Profiles() []*prof.RankProfile {
	if d, ok := o.Data.(*ScalAnaData); ok {
		return d.Profiles
	}
	return nil
}

// PPG returns the assembled Program Performance Graph ("scalana" tool
// runs only).
func (o *RunOutput) PPG() *ppg.Graph {
	if d, ok := o.Data.(*ScalAnaData); ok {
		return d.PPG
	}
	return nil
}

// StorageBytes is the tool's total measurement data size (0 for bare
// runs).
func (o *RunOutput) StorageBytes() int64 { return o.storage }

// validateRunConfig checks the parts of a RunConfig that both Run and
// RunCompiled depend on.
func validateRunConfig(cfg RunConfig) error {
	if cfg.App == nil {
		return fmt.Errorf("scalana: RunConfig.App is nil")
	}
	// An unregistered app's MinNP is 0; the simulator needs one rank.
	if minNP := max(1, cfg.App.MinNP); cfg.NP < minNP {
		return fmt.Errorf("scalana: %s requires at least %d ranks, got %d", cfg.App.Name, minNP, cfg.NP)
	}
	// A zero rate is the profiler's default; NaN fails both comparisons.
	if hz := cfg.Prof.SampleHz; !(hz >= 0 && hz <= math.MaxFloat64) {
		return fmt.Errorf("scalana: sampling rate %g Hz: want 0 (the default) or a finite positive rate", hz)
	}
	if p := cfg.Prof.CommSampleProb; !(p >= 0 && p <= 1) {
		return fmt.Errorf("scalana: communication sampling probability %g: want a value in [0, 1]", p)
	}
	return nil
}

// Run executes the app at one scale with the configured tool. It is the
// compile phase (Compile) followed by the execute phase (RunCompiled);
// multi-run workloads should compile once — through an Engine, whose
// cache keys on (app, PSG options) — and call RunCompiled per execution.
func Run(cfg RunConfig) (*RunOutput, error) {
	if err := validateRunConfig(cfg); err != nil {
		return nil, err
	}
	prog, graph, err := Compile(cfg.App)
	if err != nil {
		return nil, err
	}
	return RunCompiled(prog, graph, cfg)
}

// RunCompiled is the execute phase of Run: it runs an already-compiled
// program on the simulator with the configured tool attached. The graph
// may be shared between concurrent RunCompiled calls: a compiled graph
// is immutable — psg.Build materializes every indirect-call target a
// program can produce and nothing can add a vertex afterwards — so runs
// only read it, with no lock, and sharing one graph across a sweep
// changes neither profiles nor detection output.
//
// The tool is resolved by NewToolRun; RunCompiled itself knows nothing
// about individual tools — it drives the ToolRun lifecycle (HookForRank
// for each rank before execution, one Finish after), all on the calling
// goroutine.
func RunCompiled(prog *minilang.Program, graph *psg.Graph, cfg RunConfig) (*RunOutput, error) {
	if err := validateRunConfig(cfg); err != nil {
		return nil, err
	}
	if prog == nil || graph == nil {
		return nil, fmt.Errorf("scalana: RunCompiled needs a compiled program and graph")
	}
	name := cfg.ToolName
	out := &RunOutput{App: cfg.App, NP: cfg.NP, Tool: name, Graph: graph}
	wcfg := mpisim.Config{NP: cfg.NP, MemSpeed: cfg.App.MemSpeed, Seed: cfg.Seed}

	var trun ToolRun
	if name != "" {
		var err error
		if trun, err = NewToolRun(cfg, graph); err != nil {
			return nil, err
		}
		wcfg.HookFactory = trun.HookForRank
	}

	// The bytecode is cached on the graph, so the sweep-wide sharing the
	// Engine arranges for graphs extends to it: compile once, execute at
	// every scale.
	cached, err := graph.CompileExec(func() (any, error) {
		return vm.Compile(prog, graph)
	})
	if err != nil {
		return nil, fmt.Errorf("scalana: compile bytecode for %s: %w", cfg.App.Name, err)
	}
	world := mpisim.NewWorld(wcfg)
	res, err := world.Run(vm.NewRunner(cached.(*vm.Program)).Stepper(cfg.NP))
	if err != nil {
		return nil, fmt.Errorf("scalana: run %s np=%d: %w", cfg.App.Name, cfg.NP, err)
	}
	out.Result = res

	if trun == nil {
		return out, nil
	}
	if out.Data, out.storage, err = trun.Finish(); err != nil {
		return nil, fmt.Errorf("scalana: finalize %s: %w", name, err)
	}
	return out, nil
}

// Sweep profiles the app with ScalAna at each scale in nps and returns the
// per-scale runs ready for DetectScalingLoss. profCfg zero value uses
// paper defaults. The app is compiled once for the whole sweep and the
// scales execute on a CPU-bounded worker pool; use an Engine to control
// parallelism and seeding, or to share its compile cache across sweeps.
func Sweep(app *App, nps []int, profCfg prof.Config) ([]detect.ScaleRun, error) {
	return NewEngine().Sweep(app, nps, SweepConfig{Prof: profCfg})
}

// DetectScalingLoss runs problematic-vertex detection and backtracking
// root-cause analysis over profiled runs at multiple scales. Zero cfg
// fields take their detect.DefaultConfig values.
func DetectScalingLoss(runs []detect.ScaleRun, cfg detect.Config) (*detect.Report, error) {
	return detect.Detect(runs, cfg)
}
