package trace

import (
	"testing"

	"scalana/internal/machine"
	"scalana/internal/mpisim"
)

func fakeProc(t *testing.T) *mpisim.Proc {
	t.Helper()
	return mpisim.NewWorld(mpisim.Config{NP: 1}).Proc(0)
}

func TestTracerRecordsEvents(t *testing.T) {
	tr := New(0)
	p := fakeProc(t)
	owed := tr.MPIEvent(p, &mpisim.Event{Kind: mpisim.EvRecv, Op: mpisim.OpRecv,
		Peer: 1, Tag: 2, Bytes: 512, Wait: 0.002, DepRank: 1, TEnd: 1.5})
	if owed != eventCost {
		t.Errorf("owed = %g", owed)
	}
	recs := tr.Trace().Records
	if len(recs) != 1 || recs[0].Kind != RecComm || recs[0].Op != mpisim.OpRecv {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Wait != 0.002 || recs[0].Dep != 1 || recs[0].T != 1.5 {
		t.Errorf("record fields = %+v", recs[0])
	}
}

func TestTracerRegionEnterExit(t *testing.T) {
	tr := New(0)
	p := fakeProc(t)
	ctxA, ctxB := mpisim.Ctx(1), mpisim.Ctx(2)
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
	tr := New(0)
	p := fakeProc(t)
	if owed := tr.Advance(p, 0, 1, mpisim.AdvPerturb, 3, machine.Vec{}); owed != 0 {
		t.Error("perturb advance should not be traced or charged")
	}
	if len(tr.Trace().Records) != 0 {
		t.Error("perturb advance produced records")
	}
}

func TestStorageBytes(t *testing.T) {
	tr := New(0)
	p := fakeProc(t)
	for i := 0; i < 100; i++ {
		tr.MPIEvent(p, &mpisim.Event{Kind: mpisim.EvSend, Op: mpisim.OpSend, Peer: 1})
	}
	if got := tr.Trace().StorageBytes(); got != 100*recordBytes {
		t.Errorf("storage = %d, want %d", got, 100*recordBytes)
	}
}

func TestTracerEndToEndVolume(t *testing.T) {
	// Full tracing of a small run: record counts scale with events, which
	// is exactly why tracing storage explodes (paper Table I).
	tracers := make([]*Tracer, 4)
	cfg := mpisim.Config{NP: 4, HookFactory: func(rank int) mpisim.Hook {
		tracers[rank] = New(rank)
		return tracers[rank]
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
