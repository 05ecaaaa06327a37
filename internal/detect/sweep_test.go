package detect_test

// Detection over simulated sweeps: it reads each scale's PPG where it
// lives, and it refuses scales of two programs. internal/detect cannot
// import the root package, so this lives in the external test package.

import (
	"runtime"
	"strings"
	"testing"

	"scalana/internal/detect"
	"scalana/internal/prof"

	scalana "scalana"
)

func zeusmpProf() prof.Config {
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 2000
	return pcfg
}

// TestDetectAllocs gates what detection allocates over the zeusmp sweep
// serve-detect-stored answers (np 64/256/1024, 2 kHz, seed 1). It reads
// each vertex's total and merged time as Finish computed them and every
// per-rank time in place: 189 objects and 36,720 B (36,880 B under
// -race), against 278 and 599,921 B when it copied an np-length series a
// vertex and a query.
func TestDetectAllocs(t *testing.T) {
	const (
		runs          = 5
		objectsBudget = 210
		bytesBudget   = 48 << 10
	)
	sweep, err := scalana.NewEngine().Sweep(scalana.GetApp("zeusmp"), []int{64, 256, 1024}, scalana.SweepConfig{Prof: zeusmpProf(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, func() {
		if _, err := detect.Detect(sweep, detect.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before the counted ones.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("Detect: %.0f objects, %.0f B", objects, bytes)
	if objects > objectsBudget || bytes > bytesBudget {
		t.Errorf("Detect allocates %.0f objects and %.0f B, budget %d and %d", objects, bytes, objectsBudget, bytesBudget)
	}
}

// TestDetectRefusesAnotherProgram: a smaller scale is read by the largest
// scale's VIDs, so a scale of another program is an error naming it,
// while two compiles of one program share a symbol table and detect.
func TestDetectRefusesAnotherProgram(t *testing.T) {
	run := func(app string, np int) detect.ScaleRun {
		t.Helper()
		// scalana.Run compiles afresh: every run has a graph of its own.
		out, err := scalana.Run(scalana.RunConfig{App: scalana.GetApp(app), NP: np, ToolName: "scalana", Prof: zeusmpProf(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return detect.ScaleRun{NP: np, PPG: out.PPG()}
	}
	zeusmp64 := run("zeusmp", 64)
	if _, err := detect.Detect([]detect.ScaleRun{run("sst", 16), zeusmp64}, detect.DefaultConfig()); err == nil || !strings.Contains(err.Error(), "np=16") {
		t.Errorf("sst at np=16 with zeusmp at np=64: err = %v, want one naming np=16", err)
	}
	small, large := run("zeusmp", 8), run("zeusmp", 16)
	if small.PPG.PSG == large.PPG.PSG {
		t.Fatal("the two runs share one compiled graph")
	}
	rep, err := detect.Detect([]detect.ScaleRun{small, large}, detect.DefaultConfig())
	if err != nil {
		t.Fatalf("two compiles of zeusmp: %v", err)
	}
	if len(rep.NonScalable) == 0 {
		t.Error("two compiles of zeusmp at np 8 and 16 flag no non-scalable vertex")
	}
}
