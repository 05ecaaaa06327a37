package prof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

func testGraph(t *testing.T) *psg.Graph {
	t.Helper()
	prog := minilang.MustParse("t.mp", `
func main() {
	compute(1e6, 1e4, 1e4, 4096);
	mpi_barrier();
}`)
	return psg.MustBuild(prog)
}

// fakeProc builds a minimal Proc for direct hook unit tests.
func fakeProc(t *testing.T) *mpisim.Proc {
	t.Helper()
	w := mpisim.NewWorld(mpisim.Config{NP: 1})
	return w.Proc(0)
}

// sampledProc attaches pr to the one rank of a new world, so the rank's
// sampling timer drives it.
func sampledProc(pr *Profiler) *mpisim.Proc {
	w := mpisim.NewWorld(mpisim.Config{NP: 1, HookFactory: func(int) mpisim.Hook {
		return pr
	}})
	return w.Proc(0)
}

func TestSamplerCrossingCounts(t *testing.T) {
	g := testGraph(t)
	pr := New(DefaultConfig(), g, 0, 1) // 200 Hz -> period 5 ms
	p := sampledProc(pr)
	v := g.Root.Children[0] // the Comp vertex
	p.Ctx = mpisim.Ctx(v.VID)

	// 12 ms of computation in one go (issue-bound: 1.15 instructions a
	// flop, 2 a cycle, 2.2 GHz): crosses t=5ms and t=10ms -> 2 samples.
	const flops = 4.6e7
	p.Compute(flops, 0, 0, 64)
	pd := pr.Profile().PerfAt(v.VID)
	if pd == nil || pd.Samples != 2 {
		t.Fatalf("samples = %+v, want 2", pd)
	}
	if pd.Time != 2.0/200 {
		t.Errorf("sampled time = %g, want %g", pd.Time, 2.0/200)
	}
	if pd.PMU[machine.FpOps] != flops {
		t.Errorf("PMU attributed = %v", pd.PMU)
	}
	if p.PerturbTotal != 2*sampleCost {
		t.Errorf("charged %g, want two sample costs", p.PerturbTotal)
	}

	// Sub-period advances accumulate pending PMU without sampling...
	ins := pd.PMU[machine.TotIns]
	p.Glue(7)
	if p.PerturbTotal != 2*sampleCost {
		t.Errorf("sub-period advance was charged: total %g", p.PerturbTotal)
	}
	if pr.Profile().Vertex[v.VID].PMU[machine.TotIns] != ins {
		t.Error("pending PMU flushed too early")
	}
	// ...and the next crossing (t=15ms) flushes them.
	p.Glue(3)
	p.Perturb(0.004)
	if got := pr.Profile().Vertex[v.VID].PMU[machine.TotIns]; got != ins+10 {
		t.Errorf("PMU after flush = %g, want %g", got, ins+10)
	}
}

func TestSamplerNoChargeOnPerturb(t *testing.T) {
	g := testGraph(t)
	pr := New(DefaultConfig(), g, 0, 1)
	p := sampledProc(pr)
	v := g.Root.Children[0]
	p.Ctx = mpisim.Ctx(v.VID)
	p.Perturb(1.0)
	if got := pr.Profile().Vertex[v.VID].Samples; got != 200 {
		t.Errorf("a 1 s perturb advance took %d samples, want 200", got)
	}
	if p.PerturbTotal != 1.0 {
		t.Errorf("perturb advance was charged for its samples: total %g", p.PerturbTotal)
	}
}

func TestCommCompression(t *testing.T) {
	g := testGraph(t)
	pr := New(DefaultConfig(), g, 0, 4)
	p := fakeProc(t)
	v := g.Root.Children[1] // MPI vertex
	ev := &mpisim.Event{
		Op: mpisim.OpRecv, Peer: 1, Tag: 7,
		Bytes: 1024, Wait: 0.001, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID),
	}
	for i := 0; i < 50; i++ {
		pr.MPIEvent(p, ev)
	}
	prof := pr.Profile()
	if len(prof.Comm) != 1 {
		t.Fatalf("compressed records = %d, want 1", len(prof.Comm))
	}
	for _, rec := range prof.Comm {
		if rec.Count != 50 {
			t.Errorf("count = %d, want 50", rec.Count)
		}
		if rec.TotalWait < 0.05-1e-9 || rec.TotalWait > 0.05+1e-9 {
			t.Errorf("total wait = %g", rec.TotalWait)
		}
		if rec.MaxWait != 0.001 {
			t.Errorf("max wait = %g", rec.MaxWait)
		}
	}

	// Different parameters produce a second record.
	ev2 := *ev
	ev2.Bytes = 2048
	pr.MPIEvent(p, &ev2)
	if len(prof.Comm) != 2 {
		t.Errorf("records after different params = %d, want 2", len(prof.Comm))
	}
}

func TestCommCompressionDisabled(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.NoCompress = true
	pr := New(cfg, g, 0, 4)
	p := fakeProc(t)
	v := g.Root.Children[1]
	ev := &mpisim.Event{Op: mpisim.OpRecv, Peer: 1, Tag: 7,
		Bytes: 1024, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID)}
	for i := 0; i < 20; i++ {
		pr.MPIEvent(p, ev)
	}
	if len(pr.Profile().Comm) != 20 {
		t.Errorf("uncompressed records = %d, want 20", len(pr.Profile().Comm))
	}
}

func TestCommSamplingProbability(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.CommSampleProb = 0.25
	cfg.NoCompress = true
	pr := New(cfg, g, 0, 4)
	p := fakeProc(t)
	v := g.Root.Children[1]
	ev := &mpisim.Event{Op: mpisim.OpRecv, Peer: 1, Tag: 7,
		Bytes: 1024, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID)}
	const n = 2000
	for i := 0; i < n; i++ {
		pr.MPIEvent(p, ev)
	}
	sampled := pr.Profile().EventsSampled
	if sampled < n/8 || sampled > n/2 {
		t.Errorf("sampled %d of %d events at p=0.25", sampled, n)
	}
}

// TestRequestConverterFig5 exercises the wildcard path of paper Fig. 5:
// an irecv with uncertain source resolved from the status at wait time.
func TestRequestConverterFig5(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func main() {
	if (mpi_rank() == 0) {
		var r = mpi_irecv_any(3, 256);
		mpi_wait(r);
	} else {
		mpi_send(0, 3, 256);
	}
}`)
	g := psg.MustBuild(prog)
	profilers := make([]*Profiler, 2)
	cfg := mpisim.Config{NP: 2, HookFactory: func(rank int) mpisim.Hook {
		profilers[rank] = New(DefaultConfig(), g, rank, 2)
		return profilers[rank]
	}}
	w := mpisim.NewWorld(cfg)
	_, err := w.RunBlocking(func(p *mpisim.Proc) {
		// Execute the scenario manually (the interpreter integration is
		// covered elsewhere): set MPI vertex contexts like interp would.
		if p.Rank == 0 {
			req := p.IrecvAny(3, 256)
			p.Wait(req.ID())
		} else {
			p.Send(0, 3, 256)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var waitRec *CommRecord
	comm := profilers[0].Profile().Comm
	for i := range comm {
		if comm[i].Op == mpisim.OpWait {
			waitRec = &comm[i]
		}
	}
	if waitRec == nil {
		t.Fatal("no wait record")
	}
	if waitRec.DepRank != 1 {
		t.Errorf("wildcard source resolved to %d, want 1", waitRec.DepRank)
	}
}

func TestStorageBytesGrowsWithRecords(t *testing.T) {
	g := testGraph(t)
	pr := New(DefaultConfig(), g, 0, 1)
	empty := pr.Profile().StorageBytes()
	p := fakeProc(t)
	v := g.Root.Children[1]
	pr.MPIEvent(p, &mpisim.Event{Op: mpisim.OpRecv, Peer: 1,
		Bytes: 64, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID)})
	p.Ctx = mpisim.Ctx(g.Root.Children[0].VID)
	pr.Sample(p, 200, 1.0/200, &machine.Vec{})
	if pr.Profile().StorageBytes() <= empty {
		t.Error("storage should grow with records")
	}
}

func TestProfileSetRoundTrip(t *testing.T) {
	g := testGraph(t)
	pr := New(DefaultConfig(), g, 0, 1)
	p := fakeProc(t)
	v := g.Root.Children[1]
	p.Ctx = mpisim.Ctx(g.Root.Children[0].VID)
	pr.Sample(p, 20, 1.0/200, &machine.Vec{10, 20, 5, 1, 8})
	pr.MPIEvent(p, &mpisim.Event{Op: mpisim.OpRecv, Peer: 1, Tag: 3,
		Bytes: 64, Wait: 0.01, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID)})

	ps := &ProfileSet{App: "test", NP: 1, Elapsed: 0.1, Profiles: []*RankProfile{pr.Profile()}}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := ps.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeProfileSet(data, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.App != "test" || loaded.NP != 1 || len(loaded.Profiles) != 1 {
		t.Fatalf("loaded = %+v", loaded)
	}
	lp := loaded.Profiles[0]
	if lp.NumVertexEntries() != pr.Profile().NumVertexEntries() {
		t.Errorf("vertex entries = %d, want %d", lp.NumVertexEntries(), pr.Profile().NumVertexEntries())
	}
	if len(lp.Comm) != 1 {
		t.Fatalf("comm records = %d", len(lp.Comm))
	}
	for _, rec := range lp.Comm {
		if rec.Op != mpisim.OpRecv || rec.TotalWait != 0.01 {
			t.Errorf("restored record = %+v", rec)
		}
	}
}

// TestRequestConverterBounded holds the request converter to the rank's
// outstanding requests: every bundled app that posts mpi_irecv completes
// it with mpi_waitall, which names no request, so a converter that only
// forgot a receive at mpi_wait kept one entry a receive for the whole
// run.
func TestRequestConverterBounded(t *testing.T) {
	g := testGraph(t)
	profilers := make([]*Profiler, 2)
	w := mpisim.NewWorld(mpisim.Config{NP: 2, HookFactory: func(rank int) mpisim.Hook {
		profilers[rank] = New(DefaultConfig(), g, rank, 2)
		return profilers[rank]
	}})
	check := func(p *mpisim.Proc) {
		if held, out := len(profilers[p.Rank].pending), p.Outstanding(); held > out {
			t.Errorf("rank %d: converter holds %d receives, %d requests outstanding", p.Rank, held, out)
		}
	}
	_, err := w.RunBlocking(func(p *mpisim.Proc) {
		peer := 1 - p.Rank
		for round := 0; round < 1000; round++ {
			for i := 0; i < 8; i++ {
				p.Irecv(peer, i, 64)
				check(p)
			}
			for i := 0; i < 8; i++ {
				p.Isend(peer, i, 64)
				check(p)
			}
			if held := len(profilers[p.Rank].pending); held != 8 {
				t.Errorf("rank %d round %d: converter holds %d receives before waitall, want 8", p.Rank, round, held)
			}
			p.Waitall()
			check(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, pr := range profilers {
		if held := len(pr.pending); held != 0 {
			t.Errorf("rank %d: converter retains %d entries after the run, want 0", rank, held)
		}
	}
}

// TestUncompressedKeysCollideLikeTheMap covers the one way two
// uncompressed records can share a key: a tag outside [0, 256) overlaps
// the event number stored above it (event 1 with tag 0x200 and event 3
// with tag 0 both make 0x300; a negative tag absorbs the number
// entirely). The profiler skips the record lookup while no such tag has
// been seen, and must still merge exactly the records the map-based
// reference merged.
func TestUncompressedKeysCollideLikeTheMap(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.NoCompress = true
	p := fakeProc(t)
	v := g.Root.Children[1]
	tags := []int{0x200, 7, 0, 0x100, -1, -1, 3, 0x300, 5}
	pr, ref := New(cfg, g, 0, 2), newOracleProfiler(cfg, g, 0, 2)
	for _, tag := range tags {
		ev := &mpisim.Event{Op: mpisim.OpRecv, Peer: 1, Tag: tag,
			Bytes: 64, Wait: 0.5, DepRank: 1, DepCtx: mpisim.Ctx(v.VID), Ctx: mpisim.Ctx(v.VID)}
		pr.MPIEvent(p, ev)
		ref.MPIEvent(p, ev)
	}
	if n := len(ref.Profile().Comm); n >= len(tags) {
		t.Fatalf("reference kept %d records of %d events: the tags no longer collide", n, len(tags))
	}
	got, err := (&ProfileSet{NP: 2, Profiles: []*RankProfile{pr.Profile()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&ProfileSet{NP: 2, Profiles: []*RankProfile{ref.Profile()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("profiler and reference disagree\n--- profiler ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// TestCheckComm covers what the encoder and ppg.Build refuse: records out
// of canonical order, two records under one key, and vertices the graph
// does not have (psg.VIDNone is a vertex only on the dependence side).
func TestCheckComm(t *testing.T) {
	g := testGraph(t)
	v := g.Root.Children[1]
	rec := func(vid, dep psg.VID, tag int) CommRecord {
		return CommRecord{CommKey: CommKey{VID: vid, Op: mpisim.OpRecv, DepRank: 1, DepVID: dep, Tag: tag}, Count: 1}
	}
	for _, tc := range []struct {
		name    string
		comm    []CommRecord
		wantErr string // after SortComm; "" = accepted
	}{
		{"ascending", []CommRecord{rec(v.VID, psg.VIDNone, 1), rec(v.VID, v.VID, 1), rec(v.VID, v.VID, 2)}, ""},
		{"descending", []CommRecord{rec(v.VID, v.VID, 2), rec(v.VID, v.VID, 1)}, ""},
		{"shared key", []CommRecord{rec(v.VID, v.VID, 1), rec(v.VID, v.VID, 1)}, "share a key"},
		{"unknown vertex", []CommRecord{rec(psg.VID(g.NumVIDs()), v.VID, 1)}, "outside the symbol table"},
		{"no vertex", []CommRecord{rec(psg.VIDNone, v.VID, 1)}, "outside the symbol table"},
		{"unknown dependence vertex", []CommRecord{rec(v.VID, psg.VID(g.NumVIDs()), 1)}, "outside the symbol table"},
	} {
		rp := NewRankProfile(g, 0, 2)
		rp.Comm = tc.comm
		sortedAlready := tc.name == "ascending"
		if err := rp.CheckComm(g.Keys()); (err == nil) != sortedAlready {
			t.Errorf("%s, as built: CheckComm = %v", tc.name, err)
		}
		rp.SortComm()
		err := rp.CheckComm(g.Keys())
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s, after SortComm: CheckComm = %v, want %q", tc.name, err, tc.wantErr)
		}
		if _, encErr := rp.MarshalJSON(); (encErr == nil) != (err == nil) {
			t.Errorf("%s: MarshalJSON = %v where CheckComm = %v", tc.name, encErr, err)
		}
	}
}
