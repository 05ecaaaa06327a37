package hpctk

import (
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

func fakeProc(t *testing.T) *mpisim.Proc {
	t.Helper()
	return mpisim.NewWorld(mpisim.Config{NP: 1}).Proc(0)
}

func testVertex(t *testing.T) *psg.Vertex {
	t.Helper()
	prog := minilang.MustParse("t.mp", `
func main() {
	for (var i = 0; i < 2; i = i + 1) {
		compute(1e3, 10, 10, 64);
	}
	mpi_barrier();
}`)
	g := psg.MustBuild(prog)
	for _, v := range g.Vertices {
		if v.Kind == psg.KindComp && v.Parent.Kind == psg.KindLoop {
			return v
		}
	}
	t.Fatal("no nested comp vertex")
	return nil
}

func TestCallPathAttribution(t *testing.T) {
	v := testVertex(t)
	pr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	p.Ctx = v
	pr.Sample(p, 20, 1.0/200, &machine.Vec{50, 100, 25, 0, 40}) // 0.1s at 200Hz
	prof := pr.Profile()
	if len(prof.Ctx) != 1 {
		t.Fatalf("contexts = %d, want 1", len(prof.Ctx))
	}
	for path, cd := range prof.Ctx {
		// The path includes the full vertex chain: root > loop > comp.
		if !strings.Contains(path, ";") {
			t.Errorf("path %q has no nesting", path)
		}
		if cd.Samples != 20 || cd.Time != 0.1 {
			t.Errorf("samples = %d over %g s, want 20 over 0.1", cd.Samples, cd.Time)
		}
		if cd.PMU[0] != 50 {
			t.Errorf("PMU = %v", cd.PMU)
		}
	}
	if prof.TraceSamples != 20 {
		t.Errorf("trace samples = %d", prof.TraceSamples)
	}
}

func TestNilContextAttribution(t *testing.T) {
	pr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	pr.Sample(p, 2, 1.0/200, &machine.Vec{})
	if _, ok := pr.Profile().Ctx["root"]; !ok {
		t.Errorf("nil ctx should attribute to root: %v", pr.Profile().Ctx)
	}
}

func TestMPIEventIsNoOp(t *testing.T) {
	pr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	if owed := pr.MPIEvent(p, &mpisim.Event{Op: "mpi_recv"}); owed != 0 {
		t.Error("pure sampler should not charge MPI events")
	}
	if len(pr.Profile().Ctx) != 0 {
		t.Error("pure sampler should not record MPI events")
	}
}

func TestSamplerCost(t *testing.T) {
	// Driven by the rank's timer: 27.6 ms of computation crosses five
	// 200 Hz boundaries, each charged; the samples a perturbation advance
	// crosses are taken and not charged.
	pr := New(DefaultConfig(), 0)
	p := mpisim.NewWorld(mpisim.Config{NP: 1, HookFactory: func(int) []mpisim.Hook {
		return []mpisim.Hook{pr}
	}}).Proc(0)
	p.Compute(1.056e8, 0, 0, 64)
	if got := pr.Profile().TraceSamples; got != 5 || p.PerturbTotal != 5*DefaultConfig().SampleCost {
		t.Errorf("%d samples charged %g, want 5 charged %g", got, p.PerturbTotal, 5*DefaultConfig().SampleCost)
	}
	p.Perturb(0.1)
	if got := pr.Profile().TraceSamples; got != 25 || p.PerturbTotal != 5*DefaultConfig().SampleCost+0.1 {
		t.Errorf("after a perturb advance: %d samples, %g charged; want 25 and no new charge", got, p.PerturbTotal)
	}
}

func TestStorageGrowsWithContextsAndSamples(t *testing.T) {
	rp := &RankProfile{Rank: 0, Ctx: map[string]*CtxData{}}
	empty := rp.StorageBytes()
	rp.Ctx["root;x;y"] = &CtxData{Samples: 100}
	rp.TraceSamples = 100
	if rp.StorageBytes() <= empty {
		t.Error("storage should grow")
	}
	noTrace := &RankProfile{Rank: 0, Ctx: map[string]*CtxData{"a": {}}}
	withTrace := &RankProfile{Rank: 0, Ctx: map[string]*CtxData{"a": {}}, TraceSamples: 1000}
	if withTrace.StorageBytes() <= noTrace.StorageBytes() {
		t.Error("trace lines should add storage")
	}
}
