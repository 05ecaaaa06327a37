package bench

import (
	"fmt"
	"strings"

	"scalana/internal/detect"
	"scalana/internal/minilang"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/synth"
	"scalana/internal/vm"

	scalana "scalana"
)

// The two simulation workloads run the library pipeline: sweep an app
// over scales, detect, encode the report.

// compileStages runs the three compile layers by hand, one span each,
// and primes the graph's bytecode cache so that the runs that follow do
// not compile again.
func compileStages(tr *tracer, op int, app *scalana.App) (prog *minilang.Program, graph *psg.Graph, err error) {
	tr.do("minilang.parse", op, 0, func() { prog, err = app.Parse() })
	if err != nil {
		return nil, nil, err
	}
	tr.do("psg.build", op, 0, func() { graph, err = psg.Build(prog, psg.DefaultOptions()) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("vm.compile", op, 0, func() {
		_, err = graph.CompileExec(func() (any, error) { return vm.Compile(prog, graph) })
	})
	return prog, graph, err
}

// tracedSweep is Engine.Sweep written out by hand on a compiled app:
// per scale a bare run (no tool: VM and scheduler alone), the profiled
// run the pipeline really makes, and a replay of the PPG assembly that
// run ended with.
func tracedSweep(tr *tracer, op int, app *scalana.App, prog *minilang.Program, graph *psg.Graph,
	nps []int, pcfg prof.Config, seed int64) ([]detect.ScaleRun, error) {
	runs := make([]detect.ScaleRun, 0, len(nps))
	for _, np := range nps {
		var bare, out *scalana.RunOutput
		var err error
		tr.replay("mpisim.bare_run", op, np, func() {
			bare, err = scalana.RunCompiled(prog, graph, scalana.RunConfig{App: app, NP: np, Seed: seed})
		})
		if err != nil {
			return nil, err
		}
		tr.do("scalana.run", op, np, func() {
			out, err = scalana.RunCompiled(prog, graph, scalana.RunConfig{App: app, NP: np, ToolName: "scalana", Prof: pcfg, Seed: seed})
		})
		if err != nil {
			return nil, err
		}
		var pg *ppg.Graph
		tr.replay("ppg.build", op, np, func() { pg, err = ppg.Build(graph, out.Profiles()) })
		if err != nil {
			return nil, err
		}
		tr.count("mpisim.virtual_s", bare.Result.Elapsed)
		tr.count("prof.storage_bytes", float64(out.StorageBytes()))
		tr.count("prof.perturb_s", out.Result.PerturbTotal)
		for _, c := range out.Result.Clocks {
			tr.count("prof.clock_s", c)
		}
		tr.count("ppg.edges", float64(pg.NumEdges()))
		runs = append(runs, detect.ScaleRun{NP: np, PPG: out.PPG()})
	}
	return runs, nil
}

// tracedReport is detect and encode, one span each, recorded through
// rec: tr.do where the op itself detects, tr.replay where a handler did.
func tracedReport(rec func(string, int, int, func()), tr *tracer, op int, runs []detect.ScaleRun, dcfg detect.Config) (rep *detect.Report, out []byte, err error) {
	rec("detect.detect", op, 0, func() { rep, err = scalana.DetectScalingLoss(runs, dcfg) })
	if err != nil {
		return nil, nil, err
	}
	rec("detect.encode", op, 0, func() { out, err = rep.EncodeJSON() })
	if err != nil {
		return nil, nil, err
	}
	tr.count("detect.causes", float64(len(rep.Causes)))
	tr.count("detect.report_bytes", float64(len(out)))
	return rep, out, nil
}

// ---- sweep-zeusmp ----

// zeusmpCause is the loop the paper diagnoses as Zeus-MP's root cause
// (bval3d.F:155); a report is right when its top cause lies in it.
const zeusmpCause = "@bval3d"

type sweepZeusmp struct {
	app   *scalana.App
	eng   *scalana.Engine
	prog  *minilang.Program
	graph *psg.Graph
	nps   []int
	scfg  scalana.SweepConfig
}

func zeusmpProfConfig(seed int64) prof.Config {
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 2000
	pcfg.Seed = seed
	return pcfg
}

func setupSweepZeusmp(e env) (instance, error) {
	w := &sweepZeusmp{
		app:  scalana.GetApp("zeusmp"),
		eng:  scalana.NewEngine(),
		nps:  []int{64, 256, 1024},
		scfg: scalana.SweepConfig{Parallelism: 1, Prof: zeusmpProfConfig(e.seed), Seed: e.seed},
	}
	if e.tr != nil {
		if _, _, err := compileStages(e.tr, -1, w.app); err != nil {
			return nil, err
		}
	}
	var err error
	w.prog, w.graph, err = w.eng.Compile(w.app, psg.Options{})
	return w, err
}

func (w *sweepZeusmp) op(i int, tr *tracer) opResult {
	res := opResult{key: "report"}
	var rep *detect.Report
	if tr == nil {
		before := w.eng.CacheStats().Misses
		var runs []detect.ScaleRun
		if runs, res.err = w.eng.Sweep(w.app, w.nps, w.scfg); res.err != nil {
			return res
		}
		if rep, res.err = scalana.DetectScalingLoss(runs, detect.Config{}); res.err != nil {
			return res
		}
		res.out, res.err = rep.EncodeJSON()
		res.compileMisses = w.eng.CacheStats().Misses - before
	} else {
		tr.do("op", i, 0, func() {
			var runs []detect.ScaleRun
			if runs, res.err = tracedSweep(tr, i, w.app, w.prog, w.graph, w.nps, w.scfg.Prof, w.scfg.Seed); res.err != nil {
				return
			}
			rep, res.out, res.err = tracedReport(tr.do, tr, i, runs, detect.Config{})
		})
	}
	res.hit = res.err == nil && len(rep.Causes) > 0 && strings.Contains(rep.Causes[0].VertexKey, zeusmpCause)
	return res
}

func (w *sweepZeusmp) finish(tr *tracer) error {
	if misses := w.eng.CacheStats().Misses; misses != 1 {
		return fmt.Errorf("engine compiled zeusmp %d times, want once", misses)
	}
	return nil
}

func (w *sweepZeusmp) rewind() error { return nil }

func (w *sweepZeusmp) close() {}

// ---- corpus-accuracy ----

const corpusCases = 200

type corpusAccuracy struct {
	cases []*synth.Case
	nps   []int
	scfg  scalana.SweepConfig
	dcfg  detect.Config
}

func setupCorpusAccuracy(e env) (instance, error) {
	var corpus *synth.Corpus
	var err error
	e.tr.do("synth.generate", -1, 0, func() {
		corpus, err = synth.Generate(synth.GenConfig{Seed: e.seed, Cases: corpusCases})
	})
	if err != nil {
		return nil, err
	}
	ecfg := synth.DefaultEvalConfig()
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = ecfg.SampleHz
	return &corpusAccuracy{
		cases: corpus.Cases,
		nps:   ecfg.NPs,
		scfg:  scalana.SweepConfig{Parallelism: 1, Prof: pcfg, Seed: e.seed},
		dcfg:  ecfg.Detect,
	}, nil
}

// op compiles one case cold (a fresh engine, so parse, PSG and bytecode
// all run), sweeps it, detects, and scores the top cause against the
// case's ground truth.
func (w *corpusAccuracy) op(i int, tr *tracer) opResult {
	c := w.cases[i%len(w.cases)]
	res := opResult{key: c.Name}
	var rep *detect.Report
	if tr == nil {
		eng := scalana.NewEngine()
		var runs []detect.ScaleRun
		if runs, res.err = eng.Sweep(c.App(), w.nps, w.scfg); res.err != nil {
			return res
		}
		if rep, res.err = detect.Detect(runs, w.dcfg); res.err != nil {
			return res
		}
		res.out, res.err = rep.EncodeJSON()
		res.compileMisses = eng.CacheStats().Misses
	} else {
		tr.do("op", i, 0, func() {
			prog, graph, err := compileStages(tr, i, c.App())
			if err != nil {
				res.err = err
				return
			}
			var runs []detect.ScaleRun
			if runs, res.err = tracedSweep(tr, i, c.App(), prog, graph, w.nps, w.scfg.Prof, w.scfg.Seed); res.err != nil {
				return
			}
			rep, res.out, res.err = tracedReport(tr.do, tr, i, runs, w.dcfg)
		})
	}
	if res.err == nil && len(rep.Causes) > 0 {
		top := rep.Causes[0]
		var file string
		var line int
		if top.Vertex != nil {
			file, line = top.Vertex.Pos.File, top.Vertex.Pos.Line
		}
		for t := range c.Truth {
			if c.Truth[t].Covers(top.VertexKey, file, line) {
				res.hit = true
			}
		}
	}
	return res
}

func (w *corpusAccuracy) finish(tr *tracer) error { return nil }

func (w *corpusAccuracy) rewind() error { return nil }

func (w *corpusAccuracy) close() {}
