package trace

import (
	"testing"

	"scalana/internal/machine"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

func fakeProc(t *testing.T) *mpisim.Proc {
	t.Helper()
	return mpisim.NewWorld(mpisim.Config{NP: 1}).Proc(0)
}

func TestTracerRecordsEvents(t *testing.T) {
	tr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	owed := tr.MPIEvent(p, &mpisim.Event{Kind: mpisim.EvRecv, Op: "mpi_recv",
		Peer: 1, Tag: 2, Bytes: 512, Wait: 0.002, DepRank: 1, TEnd: 1.5})
	if owed != DefaultConfig().EventCost {
		t.Errorf("owed = %g", owed)
	}
	recs := tr.Trace().Records
	if len(recs) != 1 || recs[0].Kind != RecComm || recs[0].Op != "mpi_recv" {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Wait != 0.002 || recs[0].Dep != 1 || recs[0].T != 1.5 {
		t.Errorf("record fields = %+v", recs[0])
	}
}

func TestTracerRegionEnterExit(t *testing.T) {
	tr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	ctxA, ctxB := "A", "B" // any comparable ctx works
	tr.Advance(p, 0, 1, mpisim.AdvCompute, ctxA, machine.Vec{})
	tr.Advance(p, 1, 2, mpisim.AdvCompute, ctxA, machine.Vec{}) // same region: no records
	tr.Advance(p, 2, 3, mpisim.AdvCompute, ctxB, machine.Vec{}) // switch: exit+enter
	recs := tr.Trace().Records
	// First advance: enter(A). Third advance: exit(A), enter(B).
	if len(recs) != 3 {
		t.Fatalf("%d region records, want 3: %+v", len(recs), recs)
	}
	if recs[0].Kind != RecEnter || recs[1].Kind != RecExit || recs[2].Kind != RecEnter {
		t.Errorf("record kinds = %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
}

func TestTracerIgnoresPerturbRegions(t *testing.T) {
	tr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	if owed := tr.Advance(p, 0, 1, mpisim.AdvPerturb, "X", machine.Vec{}); owed != 0 {
		t.Error("perturb advance should not be traced or charged")
	}
	if len(tr.Trace().Records) != 0 {
		t.Error("perturb advance produced records")
	}
}

func TestStorageBytes(t *testing.T) {
	tr := New(DefaultConfig(), 0)
	p := fakeProc(t)
	for i := 0; i < 100; i++ {
		tr.MPIEvent(p, &mpisim.Event{Kind: mpisim.EvSend, Op: "mpi_send", Peer: 1})
	}
	if got := tr.Trace().StorageBytes(); got != 100*recordBytes {
		t.Errorf("storage = %d, want %d", got, 100*recordBytes)
	}
}

func TestAnalyzeWaitStates(t *testing.T) {
	const v1, v2, v3 = psg.VID(1), psg.VID(2), psg.VID(3)
	traces := []*RankTrace{
		{Rank: 0, Records: []Record{
			{Kind: RecComm, Vertex: v1, Wait: 0.5, Dep: 2},
			{Kind: RecComm, Vertex: v1, Wait: 0.3, Dep: 2},
			{Kind: RecComm, Vertex: v2, Wait: 0.1, Dep: 1},
			{Kind: RecComm, Vertex: v3, Wait: 0, Dep: -1}, // no wait: excluded
			{Kind: RecEnter, Vertex: v1},                  // non-comm: excluded
		}},
		{Rank: 1, Records: []Record{
			{Kind: RecComm, Vertex: v1, Wait: 0.2, Dep: 2},
		}},
	}
	ws := AnalyzeWaitStates(traces)
	if len(ws) != 2 {
		t.Fatalf("%d wait states, want 2", len(ws))
	}
	if ws[0].Vertex != v1 || ws[0].TotalWait != 1.0 || ws[0].Count != 3 {
		t.Errorf("top wait state = %+v", ws[0])
	}
	if ws[0].CauseRanks[2] != 1.0 {
		t.Errorf("cause attribution = %v", ws[0].CauseRanks)
	}
	if ws[1].Vertex != v2 {
		t.Errorf("second wait state = %+v", ws[1])
	}
}

func TestBackwardReplayFollowsDelayChain(t *testing.T) {
	// Rank 0 waits on rank 1, whose last prior comm waited on rank 2.
	const recv0, recv1, send1, send2 = psg.VID(10), psg.VID(11), psg.VID(12), psg.VID(13)
	traces := []*RankTrace{
		{Rank: 0, Records: []Record{
			{Kind: RecComm, Vertex: recv0, T: 10, Wait: 5, Dep: 1},
		}},
		{Rank: 1, Records: []Record{
			{Kind: RecComm, Vertex: recv1, T: 4, Wait: 3, Dep: 2},
			{Kind: RecComm, Vertex: send1, T: 12, Wait: 0, Dep: -1},
		}},
		{Rank: 2, Records: []Record{
			{Kind: RecComm, Vertex: send2, T: 3, Wait: 0, Dep: -1},
		}},
	}
	chain := BackwardReplay(traces, 10)
	if len(chain) < 3 {
		t.Fatalf("chain too short: %+v", chain)
	}
	if chain[0].Rank != 0 || chain[0].Vertex != recv0 {
		t.Errorf("chain start = %+v", chain[0])
	}
	if chain[1].Rank != 1 || chain[1].Vertex != recv1 {
		t.Errorf("chain hop 1 = %+v", chain[1])
	}
	if chain[2].Rank != 2 || chain[2].Vertex != send2 {
		t.Errorf("chain hop 2 = %+v", chain[2])
	}
	if chain[len(chain)-1].Wait != 0 {
		t.Errorf("chain should end at a no-wait record: %+v", chain)
	}
}

func TestBackwardReplayEmptyTraces(t *testing.T) {
	if chain := BackwardReplay(nil, 5); chain != nil {
		t.Errorf("empty traces gave %+v", chain)
	}
}

func TestTracerEndToEndVolume(t *testing.T) {
	// Full tracing of a small run: record counts scale with events, which
	// is exactly why tracing storage explodes (paper Table I).
	tracers := make([]*Tracer, 4)
	cfg := mpisim.Config{NP: 4, HookFactory: func(rank int) []mpisim.Hook {
		tracers[rank] = New(DefaultConfig(), rank)
		return []mpisim.Hook{tracers[rank]}
	}}
	w := mpisim.NewWorld(cfg)
	const iters = 25
	_, err := w.RunBlocking(func(p *mpisim.Proc) {
		for i := 0; i < iters; i++ {
			next := (p.Rank + 1) % 4
			prev := (p.Rank + 3) % 4
			p.Sendrecv(next, 1, 1024, prev, 1, 1024)
			p.Allreduce(8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range tracers {
		if n := len(tr.Trace().Records); n < 2*iters {
			t.Errorf("rank %d recorded %d events, want >= %d", r, n, 2*iters)
		}
	}
}
