package scalana

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/hpctk"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/trace"
	"scalana/internal/vm"
)

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("nil app should error")
	}
	if _, err := Run(RunConfig{App: GetApp("zeusmp"), NP: 2}); err == nil {
		t.Error("np below MinNP should error")
	}
	// An unregistered app has MinNP 0, so only the NP >= 1 check stands
	// between these and mpisim.NewWorld's panic.
	adhoc := &App{Name: "x", Source: "func main() { mpi_barrier(); }"}
	for _, np := range []int{0, -1} {
		if _, err := Run(RunConfig{App: adhoc, NP: np}); err == nil {
			t.Errorf("np=%d should error", np)
		}
		if _, err := NewEngine().Sweep(adhoc, []int{2, np}, SweepConfig{Parallelism: 1}); err == nil {
			t.Errorf("sweep with scale %d should error", np)
		}
	}
	// A sampling rate that is NaN, infinite or negative, or a
	// communication sampling probability outside [0, 1], used to panic
	// in the sampler or be silently replaced; every entry point refuses it.
	cg := GetApp("cg")
	prog, graph, err := Compile(cg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []prof.Config{
		{SampleHz: math.NaN()}, {SampleHz: math.Inf(1)}, {SampleHz: math.Inf(-1)}, {SampleHz: -5},
		{CommSampleProb: -1}, {CommSampleProb: 2}, {CommSampleProb: math.NaN()},
	} {
		cfg := RunConfig{App: cg, NP: 4, ToolName: "scalana", Prof: pc}
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run with %+v should error", pc)
		}
		if _, err := RunCompiled(prog, graph, cfg); err == nil {
			t.Errorf("RunCompiled with %+v should error", pc)
		}
		if _, err := NewEngine().Run(cfg); err == nil {
			t.Errorf("Engine.Run with %+v should error", pc)
		}
		if _, err := NewEngine().Sweep(cg, []int{4, 8}, SweepConfig{Parallelism: 1, Prof: pc}); err == nil {
			t.Errorf("Engine.Sweep with %+v should error", pc)
		}
	}
	// Zero still means the default rate, and both ends of [0, 1] are
	// probabilities.
	for _, pc := range []prof.Config{{SampleHz: 0, CommSampleProb: 1}, {SampleHz: 200, CommSampleProb: 0}} {
		if _, err := Run(RunConfig{App: cg, NP: 4, ToolName: "scalana", Prof: pc}); err != nil {
			t.Errorf("Run with %+v: %v", pc, err)
		}
	}
}

func TestGetAppAndNames(t *testing.T) {
	if GetApp("nope") != nil {
		t.Error("unknown app should be nil")
	}
	names := AppNames()
	if len(names) < 16 {
		t.Errorf("only %d apps registered", len(names))
	}
	if len(EvaluationNames()) != 11 {
		t.Errorf("evaluation names = %v", EvaluationNames())
	}
}

func TestCompileOptionsRespected(t *testing.T) {
	app := GetApp("cg")
	_, contracted, err := compile(app, psg.Options{MaxLoopDepth: 10, Contract: true})
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := compile(app, psg.Options{MaxLoopDepth: 10, Contract: false})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.VerticesAfter <= contracted.Stats.VerticesAfter {
		t.Errorf("uncontracted %d <= contracted %d", full.Stats.VerticesAfter, contracted.Stats.VerticesAfter)
	}
}

func TestRunProducesToolOutputs(t *testing.T) {
	app := GetApp("cg")
	for _, tc := range []struct {
		tool string
		has  func(*RunOutput) bool
	}{
		{"", func(o *RunOutput) bool { return o.Data == nil && o.Profiles() == nil && o.StorageBytes() == 0 }},
		{"scalana", func(o *RunOutput) bool { return len(o.Profiles()) == 8 && o.PPG() != nil && o.StorageBytes() > 0 }},
		{"tracer", func(o *RunOutput) bool {
			traces, ok := o.Data.([]*trace.RankTrace)
			return ok && len(traces) == 8 && o.StorageBytes() > 0
		}},
		{"hpctk", func(o *RunOutput) bool {
			profiles, ok := o.Data.([]*hpctk.RankProfile)
			return ok && len(profiles) == 8 && o.StorageBytes() > 0
		}},
	} {
		out, err := Run(RunConfig{App: app, NP: 8, ToolName: tc.tool})
		if err != nil {
			t.Fatalf("%q: %v", tc.tool, err)
		}
		if !tc.has(out) {
			t.Errorf("%q: outputs missing or unexpected: %+v", tc.tool, out)
		}
	}
}

func TestRunsAreReproducibleWithSeed(t *testing.T) {
	app := GetApp("mg")
	a, err := Run(RunConfig{App: app, NP: 8, ToolName: "scalana", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{App: app, NP: 8, ToolName: "scalana", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Elapsed != b.Result.Elapsed {
		t.Errorf("elapsed differs: %g vs %g", a.Result.Elapsed, b.Result.Elapsed)
	}
	if a.StorageBytes() != b.StorageBytes() {
		t.Errorf("storage differs: %d vs %d", a.StorageBytes(), b.StorageBytes())
	}
}

// TestSweepAndDetectSmoke covers the facade path end to end on a tiny app.
func TestSweepAndDetectSmoke(t *testing.T) {
	runs, err := Sweep(GetApp("is"), []int{4, 8}, sweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].NP != 4 || runs[1].NP != 8 {
		t.Fatalf("runs = %+v", runs)
	}
	rep, err := DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NP != 8 {
		t.Errorf("report NP = %d", rep.NP)
	}
}

// TestPartialConfigIsTheDefaults: a zero Config field is its default, so a
// config naming only some fields detects exactly as the defaults do. A
// config that set TopK alone used to skip the defaults and backtrack
// without wait-state pruning, which changed the zeusmp report.
func TestPartialConfigIsTheDefaults(t *testing.T) {
	cfg := sweepCfg()
	cfg.SampleHz = 2000
	runs, err := Sweep(GetApp("zeusmp"), []int{4, 8, 16, 32}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(rep *detect.Report, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := encode(DetectScalingLoss(runs, detect.Config{}))
	for name, got := range map[string]string{
		"TopK alone":          encode(DetectScalingLoss(runs, detect.Config{TopK: 10})),
		"DefaultConfig":       encode(DetectScalingLoss(runs, detect.DefaultConfig())),
		"detect.Detect, zero": encode(detect.Detect(runs, detect.Config{})),
	} {
		if got != want {
			t.Errorf("%s encodes %d bytes unlike the zero config's %d", name, len(got), len(want))
		}
	}
}

// TestUnboundedRecursionIsARankError: before the VM's call stack was data
// this program killed the process ("fatal error: stack overflow", which no
// recover can catch); it must come back as the rank's positioned error.
func TestUnboundedRecursionIsARankError(t *testing.T) {
	app := &App{Name: "r", Source: "func f(n) { return f(n + 1); }\nfunc main() { f(0); }\n"}
	_, err := Run(RunConfig{App: app, NP: 2})
	want := `scalana: run r np=2: rank 0: :1:20: call to "f" exceeds the call depth limit of 1000`
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want error %q", err, want)
	}
}

// TestRunawayLoopIsARankError: a program that never ends exhausts its
// rank's step budget — a count of backward jumps and calls, so the error
// and its position repeat exactly — instead of running for ever.
func TestRunawayLoopIsARankError(t *testing.T) {
	app := &App{Name: "spin", Source: "func main() { while (1) { } }\n"}
	want := fmt.Sprintf("scalana: run spin np=2: rank 0: :1:15: rank exceeds the step budget of %d backward jumps and calls", vm.MaxSteps)
	for i := 0; i < 2; i++ {
		if _, err := Run(RunConfig{App: app, NP: 2, ToolName: "scalana"}); err == nil || err.Error() != want {
			t.Fatalf("Run %d = %v, want error %q", i, err, want)
		}
	}
}

// TestHugeAllocIsARankError: before arrays were charged to a rank's budget
// the first program killed the process ("fatal error: runtime: out of
// memory", which no recover can catch) and the second grew until the host
// did; each must come back as the rank's positioned error.
func TestHugeAllocIsARankError(t *testing.T) {
	for src, at := range map[string]string{
		"func main() { var a = alloc(1000000000000); }\n":                  ":1:23: alloc of 1e+12",
		"func main() {\n\twhile (1) {\n\t\tvar a = alloc(1000);\n\t}\n}\n": ":3:11: alloc of 1000",
	} {
		want := fmt.Sprintf("scalana: run big np=2: rank 0: %s elements exceeds what is left of the rank's array budget of %d", at, vm.MaxArrayElems)
		if _, err := Run(RunConfig{App: &App{Name: "big", Source: src}, NP: 2, ToolName: "scalana"}); err == nil || err.Error() != want {
			t.Errorf("Run = %v, want error %q", err, want)
		}
	}
}

// TestIndirectCallProfiledEndToEnd: an app using function pointers runs
// under the ScalAna profiler; the PSG is refined at run time and the
// callee's work is attributed to the materialized vertices.
func TestIndirectCallProfiledEndToEnd(t *testing.T) {
	app := &App{
		Name: "indirect-e2e", File: "ind.mp", MinNP: 1,
		Source: `
func lightKernel(w) {
	for (var i = 0; i < 2; i = i + 1) { compute(w / 2, w / 20, w / 40, 4096); }
}
func heavyKernel(w) {
	for (var i = 0; i < 8; i = i + 1) { compute(w, w / 10, w / 20, 65536); }
}
func main() {
	var k = &lightKernel;
	if (mpi_rank() % 2 == 1) {
		k = &heavyKernel;
	}
	k(1e7);
	mpi_barrier();
}`,
	}
	out, err := Run(RunConfig{App: app, NP: 4, ToolName: "scalana"})
	if err != nil {
		t.Fatal(err)
	}
	// Both targets observed at run time.
	targets := map[string]bool{}
	for _, rp := range out.Profiles() {
		for _, rec := range rp.Indirect {
			targets[rec.Target] = true
		}
	}
	if !targets["lightKernel"] || !targets["heavyKernel"] {
		t.Errorf("indirect targets observed = %v", targets)
	}
	// The refined PSG contains vertices for both kernels, with samples on
	// the heavy one.
	heavyTime := 0.0
	keys := out.PPG().PSG.Keys()
	for _, vid := range out.PPG().PresentVIDs() {
		if strings.Contains(keys[vid], "@heavyKernel") {
			for _, tm := range out.PPG().TimeSeries(vid) {
				heavyTime += tm
			}
		}
	}
	if heavyTime <= 0 {
		t.Error("no time attributed to the runtime-materialized heavyKernel vertices")
	}
}
