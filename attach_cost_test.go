package scalana_test

import (
	"runtime"
	"strings"
	"testing"

	"scalana/internal/prof"
	"scalana/internal/psg"

	scalana "scalana"
)

// TestAttachCostPerRank gates what attaching the ScalAna tool adds to a
// run, in heap objects and bytes a rank: zeusmp at np=256, bare and
// profiled, everything from NewRun to the assembled PPG included. The
// paper's claim is a cheap runtime (Fig. 10); on the host its cost shows
// as time, which a shared 1-CPU runner cannot assert, and as allocation,
// which repeats exactly under testing.AllocsPerRun's single P.
//
// Measured with attribution contexts carried as VIDs and operations as
// an mpisim.Op, so records and edges hold no pointer: 0.2 objects and
// 3,459 B a rank (3,816 B when they held an interface and a string; 0.2
// and 5,565 B when
// the profilers kept a slab of their own and the PPG copied it; 16.7 and
// 6,521 B when the profiler kept its own period, bucket and pending
// counters; the map-based profiler: 41.4 and 10,502 B). The budgets are
// 0.5 objects and those bytes plus 10 %. What is left is the one
// performance block, the record arenas and the PPG's edge arenas, not
// the per-event path.
//
// The bare run has a budget of its own: 1.24 objects (plus 20 %) and
// 2,231 B a rank (plus 10 %) — the ranks of a world are one slab, a rank
// carries the timer and the counters it reads, and a VM register is one
// 8-byte word (5,913 B when it was 48). A rank's machine, registers and
// call stack are carved from three per-run slabs, its request lists and
// handles and its channels' first queues from the world's, whose chunks
// open at np slots; a channel keeps only its in-flight messages, a
// pointer-free 32 B each (1.28 objects and 2,440 B a rank when a message
// held its sender's context as an interface and chunks opened at 64
// slots; 22.3 objects and 4,697 B when a channel kept every message of
// the run). A per-rank allocation creeping back
// into vm.Runner.Stepper or mpisim shows here as a count.
func TestAttachCostPerRank(t *testing.T) {
	const (
		np                = 256
		runs              = 5
		objectsBudget     = 0.5
		bytesBudget       = 3805
		bareObjectsBudget = 1.49
		bareBytesBudget   = 2454
	)
	app := scalana.GetApp("zeusmp")
	prog, graph, err := scalana.NewEngine().Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 2000
	perRank := func(tool string) (objects, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, func() {
			if _, err := scalana.RunCompiled(prog, graph, scalana.RunConfig{App: app, NP: np, ToolName: tool, Prof: pcfg}); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before the counted ones.
		return objects / np, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / np
	}
	bareObjects, bareBytes := perRank("")
	profObjects, profBytes := perRank("scalana")
	objects, bytes := profObjects-bareObjects, profBytes-bareBytes
	t.Logf("per rank: bare %.2f objects / %.0f B, profiled %.1f / %.0f, attach cost %.1f objects / %.0f B",
		bareObjects, bareBytes, profObjects, profBytes, objects, bytes)
	if bareObjects > bareObjectsBudget || bareBytes > bareBytesBudget {
		t.Errorf("a bare run costs %.2f objects and %.0f B a rank, budget %g and %d",
			bareObjects, bareBytes, bareObjectsBudget, bareBytesBudget)
	}
	if objects > objectsBudget || bytes > bytesBudget {
		t.Errorf("attaching the profiler costs %.1f objects and %.0f B a rank, budget %g and %d",
			objects, bytes, objectsBudget, bytesBudget)
	}
}

// TestSimulatorCountersRepeat pins RunResult's counters on the benchmark's
// smallest zeusmp scale (np=64, 2 kHz sampling): they are a function of
// program, scale, seed and tool configuration alone, which is what lets a
// ledger entry put "same events, less time an event" next to a timing.
func TestSimulatorCountersRepeat(t *testing.T) {
	app := scalana.GetApp("zeusmp")
	prog, graph, err := scalana.NewEngine().Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 2000
	counters := func(tool string) [4]int64 {
		out, err := scalana.RunCompiled(prog, graph, scalana.RunConfig{App: app, NP: 64, ToolName: tool, Prof: pcfg, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := out.Result
		return [4]int64{r.Advances, r.Events, r.Yields, r.Samples}
	}
	// The tool adds an advance a sample and an advance a recorded event;
	// its perturbation moves clocks, and with them how often a rank finds
	// its message not yet there.
	if got, want := counters(""), [4]int64{87328, 6464, 1782, 0}; got != want {
		t.Errorf("bare run: advances, events, yields, samples = %v, want %v", got, want)
	}
	want := [4]int64{102144, 6464, 1638, 12192}
	for i := 0; i < 2; i++ {
		if got := counters("scalana"); got != want {
			t.Errorf("profiled run %d: advances, events, yields, samples = %v, want %v", i, got, want)
		}
	}
}

// TestSamplesCountsTimerSamplesOnly pins RunResult.Samples for the two
// baseline tools on the same run: the call-path profiler's are its timer
// samples, and the tracer — whose every record charges overhead, which is
// what Samples used to count (48,992 here) — takes none.
func TestSamplesCountsTimerSamplesOnly(t *testing.T) {
	app := scalana.GetApp("zeusmp")
	prog, graph, err := scalana.NewEngine().Compile(app, psg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for tool, want := range map[string][2]int64{"hpctk": {90704, 3376}, "tracer": {141984, 0}} {
		out, err := scalana.RunCompiled(prog, graph, scalana.RunConfig{App: app, NP: 64, ToolName: tool, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]int64{out.Result.Advances, out.Result.Samples}; got != want {
			t.Errorf("%s: advances, samples = %v, want %v", tool, got, want)
		}
	}
}

// TestProfiledRunPPGSharesProfileRows pins the one copy of a scale's
// performance data: every rank's profile Vertex is its row of the PPG's
// rank-major block, written in place by the profiler, not a slab of its
// own that the graph copies.
func TestProfiledRunPPGSharesProfileRows(t *testing.T) {
	pcfg := prof.DefaultConfig()
	pcfg.SampleHz = 2000
	out, err := scalana.Run(scalana.RunConfig{App: scalana.GetApp("zeusmp"), NP: 64, ToolName: "scalana", Prof: pcfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pg := out.PPG()
	nv := pg.NumVIDs()
	for r, rp := range out.Profiles() {
		if len(rp.Vertex) != nv || &rp.Vertex[0] != &pg.Perf[r*nv] {
			t.Fatalf("rank %d's profile is not its row of the PPG's block", r)
		}
	}
}

// A scalana run for no rank has no PPG block: Finish reports the
// builder's error instead of profiling into a block of its own.
func TestScalAnaRunWithoutRanksFailsAtFinish(t *testing.T) {
	app := scalana.GetApp("zeusmp")
	_, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	trun, err := scalana.NewToolRun(scalana.RunConfig{App: app, NP: 0, ToolName: "scalana"}, graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := trun.Finish(); err == nil || !strings.Contains(err.Error(), "assemble PPG: ppg: np=0") {
		t.Fatalf("Finish of a run without ranks: %v", err)
	}
}
