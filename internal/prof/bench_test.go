package prof

import (
	"fmt"
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// benchGraph builds a PSG with nMPI distinct MPI vertices interleaved with
// compute, the shape a real profiled run attributes events against.
func benchGraph(nMPI int) *psg.Graph {
	var sb strings.Builder
	sb.WriteString("func main() {\n")
	for i := 0; i < nMPI; i++ {
		fmt.Fprintf(&sb, "\tcompute(1e6, 1e4, 1e4, 4096);\n")
		fmt.Fprintf(&sb, "\tmpi_allreduce(%d);\n", 8*(i+1))
	}
	sb.WriteString("}\n")
	return psg.MustBuild(minilang.MustParse("bench.mp", sb.String()))
}

// mpiVertices returns the graph's MPI vertices in preorder.
func mpiVertices(g *psg.Graph) []*psg.Vertex {
	var out []*psg.Vertex
	for _, v := range g.Vertices {
		if v.Kind == psg.KindMPI {
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkProfilerEvents is the sampler + PMPI hot path end to end: one
// op is a fresh per-rank profiler handling rounds of timer samples (one
// period crossed each) and MPI events across 16 distinct vertices —
// the first-touch storage cost plus the steady-state attribution cost.
// Allocation counts are deterministic.
func BenchmarkProfilerEvents(b *testing.B) {
	g := benchGraph(16)
	vs := mpiVertices(g)
	w := mpisim.NewWorld(mpisim.Config{NP: 1})
	p := w.Proc(0)
	evs := make([]mpisim.Event, len(vs))
	for i, v := range vs {
		evs[i] = mpisim.Event{
			Op: mpisim.OpRecv, Peer: 1, Tag: i,
			Bytes: 1024, Wait: 1e-4, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID),
		}
	}
	const rounds = 8
	period := 1 / DefaultConfig().SampleHz
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := New(DefaultConfig(), g, 0, 4)
		for j := 0; j < rounds*len(vs); j++ {
			v := vs[j%len(vs)]
			p.Ctx = mpisim.Ctx(v.VID)
			pr.Sample(p, 1, period, &machine.Vec{100, 50, 10, 1, 5})
			pr.MPIEvent(p, &evs[j%len(evs)])
		}
	}
}

// BenchmarkProfilerEventSteady is the steady-state per-event cost with all
// storage already touched: pure attribution, no first-touch allocation.
func BenchmarkProfilerEventSteady(b *testing.B) {
	g := benchGraph(16)
	vs := mpiVertices(g)
	w := mpisim.NewWorld(mpisim.Config{NP: 1})
	p := w.Proc(0)
	pr := New(DefaultConfig(), g, 0, 4)
	evs := make([]mpisim.Event, len(vs))
	for i, v := range vs {
		evs[i] = mpisim.Event{
			Op: mpisim.OpRecv, Peer: 1, Tag: i,
			Bytes: 1024, Wait: 1e-4, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID),
		}
	}
	period := 1 / pr.cfg.SampleHz
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		p.Ctx = mpisim.Ctx(v.VID)
		pr.Sample(p, 1, period, &machine.Vec{100, 50, 10, 1, 5})
		pr.MPIEvent(p, &evs[i%len(evs)])
	}
}

// BenchmarkProfilerSampleOnly isolates the timer-sampling path (Sample
// for one period crossing, no MPI work).
func BenchmarkProfilerSampleOnly(b *testing.B) {
	g := benchGraph(4)
	vs := mpiVertices(g)
	w := mpisim.NewWorld(mpisim.Config{NP: 1})
	p := w.Proc(0)
	pr := New(DefaultConfig(), g, 0, 4)
	period := 1 / pr.cfg.SampleHz
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Ctx = mpisim.Ctx(vs[i%len(vs)].VID)
		pr.Sample(p, 1, period, &machine.Vec{100, 50, 10, 1, 5})
	}
}

// TestSamplerHotPathAllocFree asserts the steady-state per-event cost of
// the interned hot path: once a vertex's dense slot and comm records
// exist, attributing further samples and events allocates nothing. Every
// vertex alternates between two peers — two records on one chain, the
// case a one-entry cache in front of the lookup would thrash on.
// Allocation counts are deterministic, so this asserts cleanly even on a
// single-CPU runner where timing comparisons cannot.
func TestSamplerHotPathAllocFree(t *testing.T) {
	g := benchGraph(4)
	vs := mpiVertices(g)
	w := mpisim.NewWorld(mpisim.Config{NP: 1})
	p := w.Proc(0)
	pr := New(DefaultConfig(), g, 0, 4)
	evs := make([]mpisim.Event, 2*len(vs))
	for i := range evs {
		v, peer := vs[i%len(vs)], 1+i/len(vs)
		evs[i] = mpisim.Event{
			Op: mpisim.OpRecv, Peer: peer, Tag: i % len(vs),
			Bytes: 1024, Wait: 1e-4, DepRank: peer, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID),
		}
	}
	period := 1 / pr.cfg.SampleHz
	iter := 0
	step := func() {
		p.Ctx = mpisim.Ctx(vs[iter%len(vs)].VID)
		pr.Sample(p, 1, period, &machine.Vec{1, 1, 1, 1, 1})
		pr.MPIEvent(p, &evs[iter%len(evs)])
		iter++
	}
	// Warm every slot and record once.
	for range evs {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("steady-state sample+event path allocates %.1f objects/op, want 0", allocs)
	}
	if got, want := len(pr.Profile().Comm), len(evs); got != want {
		t.Errorf("%d records, want %d (two peers a vertex)", got, want)
	}
}

// TestSampledAdvanceAllocFree is the same gate one layer down, on the
// path a statement takes: a glue advance and a compute advance on a rank
// with the profiler attached allocate nothing, whether or not they fire
// the rank's timer. At 100 MHz every second glue advance does, and every
// compute advance crosses thousands of periods.
func TestSampledAdvanceAllocFree(t *testing.T) {
	g := benchGraph(4)
	cfg := DefaultConfig()
	cfg.SampleHz = 1e8
	pr := New(cfg, g, 0, 4)
	p := sampledProc(pr)
	v := mpiVertices(g)[0]
	p.Ctx = mpisim.Ctx(v.VID)
	for name, advance := range map[string]func(){
		"glue":    func() { p.Glue(24) },
		"compute": func() { p.Compute(1e5, 1e4, 1e3, 4096) },
	} {
		advance()
		before := pr.Profile().Vertex[v.VID].Samples
		if allocs := testing.AllocsPerRun(1000, advance); allocs != 0 {
			t.Errorf("a %s advance with the profiler attached allocates %.2f objects, want 0", name, allocs)
		}
		if took := pr.Profile().Vertex[v.VID].Samples - before; took < 500 {
			t.Errorf("1001 %s advances took %d samples; the gate must cover the sampled path", name, took)
		}
	}
}
