package scalana

import (
	"strings"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// detectCfg is the detection setup used by the end-to-end tests: a higher
// sampling rate than the paper's 200 Hz keeps the short simulated runs
// statistically stable.
func sweepCfg() prof.Config {
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 5000
	return cfg
}

func runCaseStudy(t *testing.T, app string, nps []int) *detect.Report {
	t.Helper()
	a := GetApp(app)
	if a == nil {
		t.Fatalf("app %q not registered", app)
	}
	runs, err := Sweep(a, nps, sweepCfg())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	rep, err := DetectScalingLoss(runs, detect.Config{})
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	return rep
}

func reportHasCause(rep *detect.Report, substr string) bool {
	for _, c := range rep.Causes {
		if strings.Contains(c.VertexKey, substr) {
			return true
		}
	}
	return false
}

func pathTouches(rep *detect.Report, substr string) bool {
	for _, p := range rep.Paths {
		for _, s := range p.Steps {
			if strings.Contains(s.VertexKey, substr) {
				return true
			}
		}
	}
	return false
}

// TestZeusMPRootCause reproduces the paper's §VI-D1 diagnosis: the dt
// Allreduce (nudt.F:361 analog) shows the scaling loss, and backtracking
// lands on the busy-rank bval3d loop as the root cause.
func TestZeusMPRootCause(t *testing.T) {
	rep := runCaseStudy(t, "zeusmp", []int{4, 8, 16, 32})

	if len(rep.NonScalable) == 0 {
		t.Fatal("no non-scalable vertices found")
	}
	if len(rep.Paths) == 0 {
		t.Fatal("no backtracking paths produced")
	}
	// The bval3d loop lives in the instance main/...@bval3d.
	if !pathTouches(rep, "@bval3d") {
		for _, p := range rep.Paths {
			t.Logf("path (cause=%v):", p.Cause)
			for _, s := range p.Steps {
				t.Logf("  %-8s rank=%-3d %s", s.Via, s.Rank, s.VertexKey)
			}
		}
		t.Fatal("no backtracking path reaches the bval3d loop")
	}
	if !reportHasCause(rep, "@bval3d") {
		for _, c := range rep.Causes {
			t.Logf("cause: %s score=%.4f share=%.4f imb=%.1f", c.VertexKey, c.Score, c.Share, c.Imbalance)
		}
		t.Fatal("bval3d loop not ranked as a root cause")
	}
}

// TestSSTRootCause reproduces §VI-D2: backtracking from the epoch-sync
// Allreduce/Waitall reaches the handleEvent loop.
func TestSSTRootCause(t *testing.T) {
	rep := runCaseStudy(t, "sst", []int{4, 8, 16, 32})
	if !pathTouches(rep, "@handleEvent") {
		for _, p := range rep.Paths {
			t.Logf("path:")
			for _, s := range p.Steps {
				t.Logf("  %-8s rank=%-3d %s", s.Via, s.Rank, s.VertexKey)
			}
		}
		t.Fatal("no backtracking path reaches the handleEvent loop")
	}
	if !reportHasCause(rep, "@handleEvent") {
		t.Fatal("handleEvent loop not ranked as a root cause")
	}
}

// TestNekboneRootCause reproduces §VI-D3: the comm_wait Waitall is the
// symptom; the dgemm loop on heterogeneous-memory cores is the cause.
func TestNekboneRootCause(t *testing.T) {
	rep := runCaseStudy(t, "nekbone", []int{4, 8, 16, 32})
	if !pathTouches(rep, "@dgemm") {
		for _, p := range rep.Paths {
			t.Logf("path:")
			for _, s := range p.Steps {
				t.Logf("  %-8s rank=%-3d %s", s.Via, s.Rank, s.VertexKey)
			}
		}
		t.Fatal("no backtracking path reaches the dgemm loop")
	}
	if !reportHasCause(rep, "@dgemm") {
		t.Fatal("dgemm loop not ranked as a root cause")
	}
}

// TestOptimizedVariantsFaster verifies the paper's fixes pay off in the
// simulation: each -opt variant outruns its original at the same scale.
func TestOptimizedVariantsFaster(t *testing.T) {
	for _, pair := range [][2]string{{"zeusmp", "zeusmp-opt"}, {"sst", "sst-opt"}, {"nekbone", "nekbone-opt"}} {
		orig, err := Run(RunConfig{App: GetApp(pair[0]), NP: 16})
		if err != nil {
			t.Fatalf("%s: %v", pair[0], err)
		}
		opt, err := Run(RunConfig{App: GetApp(pair[1]), NP: 16})
		if err != nil {
			t.Fatalf("%s: %v", pair[1], err)
		}
		if opt.Result.Elapsed >= orig.Result.Elapsed {
			t.Errorf("%s: optimized (%.4fs) not faster than original (%.4fs)",
				pair[0], opt.Result.Elapsed, orig.Result.Elapsed)
		} else {
			t.Logf("%s: %.4fs -> %.4fs (%.1f%% faster)", pair[0], orig.Result.Elapsed,
				opt.Result.Elapsed, 100*(orig.Result.Elapsed-opt.Result.Elapsed)/orig.Result.Elapsed)
		}
	}
}

// TestInjectedDelayFound reproduces the Fig. 2 motivating example: a delay
// injected on rank 4 of CG is located by abnormal-vertex detection plus
// backtracking.
func TestInjectedDelayFound(t *testing.T) {
	rep := runCaseStudy(t, "cg-delay", []int{8})
	found := false
	for _, ab := range rep.Abnormal {
		v := ab.Vertex
		if v.Kind == psg.KindComp {
			for _, r := range ab.OutlierRanks {
				if r == 4 {
					found = true
				}
			}
		}
	}
	if !found {
		for _, ab := range rep.Abnormal {
			t.Logf("abnormal: %s ratio=%.2f outliers=%v", ab.VertexKey, ab.Ratio, ab.OutlierRanks)
		}
		t.Fatal("injected delay on rank 4 not flagged as abnormal")
	}
}

// TestToolOverheadOrdering verifies the central overhead claim (paper
// Table I): tracing costs much more than sampling-based tools, and
// ScalAna's storage is far below both.
func TestToolOverheadOrdering(t *testing.T) {
	app := GetApp("cg")
	base, err := Run(RunConfig{App: app, NP: 16})
	if err != nil {
		t.Fatal(err)
	}
	scal, err := Run(RunConfig{App: app, NP: 16, ToolName: "scalana"})
	if err != nil {
		t.Fatal(err)
	}
	trc, err := Run(RunConfig{App: app, NP: 16, ToolName: "tracer"})
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := Run(RunConfig{App: app, NP: 16, ToolName: "hpctk"})
	if err != nil {
		t.Fatal(err)
	}
	ovh := func(o *RunOutput) float64 {
		return 100 * (o.Result.Elapsed - base.Result.Elapsed) / base.Result.Elapsed
	}
	t.Logf("overhead%%: scalana=%.2f hpctk=%.2f tracer=%.2f", ovh(scal), ovh(hpc), ovh(trc))
	t.Logf("storage: scalana=%d hpctk=%d tracer=%d", scal.StorageBytes(), hpc.StorageBytes(), trc.StorageBytes())
	if !(ovh(trc) > ovh(scal)) {
		t.Errorf("tracer overhead (%.2f%%) should exceed ScalAna (%.2f%%)", ovh(trc), ovh(scal))
	}
	if !(scal.StorageBytes() < hpc.StorageBytes() && hpc.StorageBytes() < trc.StorageBytes()) {
		t.Errorf("storage ordering violated: scalana=%d hpctk=%d tracer=%d",
			scal.StorageBytes(), hpc.StorageBytes(), trc.StorageBytes())
	}
}
