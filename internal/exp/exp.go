// Package exp regenerates every table and figure of the paper's
// evaluation (§VI) plus the illustrative figures (§II-III), using the
// full pipeline: MiniMP apps on the simulator, the three tools, PPG
// assembly, and detection. Each experiment renders a textual table or
// chart and returns machine-readable values for the bench harness.
package exp

import (
	"fmt"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/par"
	"scalana/internal/prof"
	"scalana/internal/psg"

	scalana "scalana"
)

// eng is the package-wide sweep engine. Every experiment compiles
// through its cache, so each (app, PSG options) pair is parsed and
// contracted once per process no matter how many experiments — possibly
// running concurrently via RunAll — touch it.
var eng = scalana.NewEngine()

// Result is one regenerated experiment.
type Result struct {
	ID    string
	Title string
	Text  string
	// Values holds headline numbers keyed by metric name, for benches and
	// tests (e.g. "overhead_scalana_pct").
	Values map[string]float64
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Values: map[string]float64{}}
}

func (r *Result) addf(format string, args ...any) {
	r.Text += fmt.Sprintf(format, args...)
}

// Experiment is one experiment generator.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// experiments is every experiment, in paper order.
var experiments = []Experiment{
	{"table1", "Table I: tool comparison on NPB-CG, 128 processes", table1},
	{"fig2", "Fig. 2: motivating example, injected delay in NPB-CG found by backtracking", fig2},
	{"fig4", "Fig. 4: PSG construction stages for the Fig. 3 example", fig4},
	{"fig6", "Fig. 6: a PPG running with 8 processes", fig6},
	{"fig7", "Fig. 7: non-scalable and abnormal vertex examples", fig7},
	{"fig8", "Fig. 8: problematic vertices and backtracking on the PPG", fig8},
	{"table2", "Table II: PSG size and vertex mix for all programs", table2},
	{"table3", "Table III: static (compile-time) overhead of PSG construction", table3},
	{"fig10", "Fig. 10: average runtime overhead of the three tools, 4-128 processes", fig10},
	{"fig11", "Fig. 11: storage cost of the three tools, 128 processes", fig11},
	{"table4", "Table IV: post-mortem detection cost, 128 processes", table4},
	{"fig12", "Fig. 12: Zeus-MP root-cause paths and optimization speedup", fig12},
	{"fig13", "Fig. 13: Zeus-MP runtime/storage overhead of the three tools", fig13},
	{"fig14", "Fig. 14: SST root-cause paths and optimization", fig14},
	{"fig15", "Fig. 15: SST per-rank TOT_INS before/after the fix", fig15},
	{"fig16", "Fig. 16: Nekbone PMU data before/after the fix", fig16},
	{"synth", "Accuracy: root-cause localization on the synthetic ground-truth corpus", synthAccuracy},
}

// All returns every experiment in paper order.
func All() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// Get returns the experiment with the given id, or nil.
func Get(id string) *Experiment {
	for i := range experiments {
		if experiments[i].ID == id {
			return &experiments[i]
		}
	}
	return nil
}

// RunAll executes the given experiments on at most parallelism workers
// (0 = one per CPU, 1 = one experiment at a time) and returns their
// results in input order. All experiments share the package engine's compile cache.
// Experiments are independent, so a failure does not stop the others:
// on error, the returned slice still carries every completed result
// (failed slots are nil) alongside the lowest-indexed failure.
func RunAll(exps []Experiment, parallelism int) ([]*Result, error) {
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	par.ForEach(len(exps), parallelism, func(i int) {
		res, err := exps[i].Run()
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", exps[i].ID, err)
			return
		}
		results[i] = res
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// ---- shared helpers ----

// sweepProf is the profiling configuration used for detection-quality
// experiments: a higher sampling rate than the paper's 200 Hz keeps the
// short simulated runs statistically stable (overhead experiments use the
// paper's 200 Hz instead).
func sweepProf() prof.Config {
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 5000
	return cfg
}

// sweep runs a multi-scale profiling sweep through the shared engine:
// one compile per app, scales fanned out across the CPU-bounded pool.
func sweep(app *scalana.App, nps []int) ([]detect.ScaleRun, error) {
	return eng.Sweep(app, nps, scalana.SweepConfig{Prof: sweepProf()})
}

// runTools executes app at np with no tool and with each of the three
// comparison tools, returning overhead percentages and storage bytes
// keyed by tool name.
func runTools(app *scalana.App, np int) (ovh map[string]float64, storage map[string]int64, err error) {
	base, err := eng.Run(scalana.RunConfig{App: app, NP: np})
	if err != nil {
		return nil, nil, err
	}
	ovh = map[string]float64{}
	storage = map[string]int64{}
	for _, name := range []string{"scalana", "hpctk", "tracer"} {
		out, err := eng.Run(scalana.RunConfig{App: app, NP: np, ToolName: name})
		if err != nil {
			return nil, nil, fmt.Errorf("%s with %s: %w", app.Name, name, err)
		}
		ovh[name] = 100 * (out.Result.Elapsed - base.Result.Elapsed) / base.Result.Elapsed
		storage[name] = out.StorageBytes()
	}
	return ovh, storage, nil
}

// scalesFor returns the np sweep for an app, honoring its minimum.
func scalesFor(app *scalana.App, nps []int) []int {
	var out []int
	for _, np := range nps {
		if np >= app.MinNP {
			out = append(out, np)
		}
	}
	return out
}

// describeVertex renders a vertex with its source position and snippet.
func describeVertex(v *psg.Vertex, app *scalana.App) string {
	prog, err := app.Parse()
	line := ""
	if err == nil {
		line = strings.TrimSpace(prog.SourceLine(v.Pos.Line))
	}
	return fmt.Sprintf("%s %s at %s:%d  | %s", v.Kind, v.Name, v.Pos.File, v.Pos.Line, line)
}

// renderPaths renders backtracking paths with source lines.
func renderPaths(rep *detect.Report, app *scalana.App, maxPaths int) string {
	var sb strings.Builder
	prog, _ := app.Parse()
	for i, p := range rep.Paths {
		if i >= maxPaths {
			fmt.Fprintf(&sb, "  ... and %d more paths\n", len(rep.Paths)-maxPaths)
			break
		}
		fmt.Fprintf(&sb, "  path %d:\n", i+1)
		for _, s := range p.Steps {
			snippet := ""
			if prog != nil {
				snippet = strings.TrimSpace(prog.SourceLine(s.Vertex.Pos.Line))
			}
			extra := ""
			if s.Via == detect.ViaComm {
				extra = fmt.Sprintf(" (waited %.3fms)", s.Wait*1e3)
			}
			fmt.Fprintf(&sb, "    %-7s rank %-3d %-6s %s:%d%s  | %s\n",
				s.Via, s.Rank, s.Vertex.Kind, s.Vertex.Pos.File, s.Vertex.Pos.Line, extra, snippet)
		}
		if p.Cause != nil {
			fmt.Fprintf(&sb, "    => cause: %s\n", describeVertex(p.Cause.Vertex, app))
		}
	}
	return sb.String()
}
