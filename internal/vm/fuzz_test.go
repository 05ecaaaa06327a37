package vm_test

// FuzzVMvsInterp is the differential fuzz target: it generates a seeded
// synthetic MiniMP workload (the same generator that builds the detection
// accuracy corpus), executes it on the tree-walking interpreter and on
// the bytecode VM over raw simulator worlds with a recording hook, and
// asserts the two executions produce identical per-rank event streams and
// final virtual clocks. The interpreter is the oracle; any stream
// divergence is a VM bug.

import (
	"reflect"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/synth"
	"scalana/internal/vm"
	"scalana/internal/vm/difftest/interp"
)

// recEvent is one MPI event with the opaque attribution contexts
// flattened to interned vertex IDs, so whole streams compare with
// reflect.DeepEqual.
type recEvent struct {
	Kind         mpisim.EventKind
	Op           string
	Rank         int
	Peer         int
	Tag          int
	Bytes        float64
	TStart       float64
	TEnd         float64
	Wait         float64
	DepRank      int
	DepCtx       int
	Ctx          int
	Collective   bool
	Root         int
	Requests     int
	RecvRequests int
	SendPeer     int
	SendBytes    float64
	ReqID        int
}

func ctxVID(ctx any) int {
	if v, ok := ctx.(*psg.Vertex); ok {
		return int(v.VID)
	}
	return -1
}

// recorder copies every event's fields out of the simulator's reusable
// scratch storage (the Event pointer is only valid during the call).
type recorder struct{ events []recEvent }

func (r *recorder) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx any, pmu machine.Vec) float64 {
	return 0
}

func (r *recorder) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	r.events = append(r.events, recEvent{
		Kind: ev.Kind, Op: ev.Op, Rank: ev.Rank, Peer: ev.Peer, Tag: ev.Tag,
		Bytes: ev.Bytes, TStart: ev.TStart, TEnd: ev.TEnd, Wait: ev.Wait,
		DepRank: ev.DepRank, DepCtx: ctxVID(ev.DepCtx), Ctx: ctxVID(ev.Ctx),
		Collective: ev.Collective, Root: ev.Root, Requests: ev.Requests,
		RecvRequests: ev.RecvRequests, SendPeer: ev.SendPeer,
		SendBytes: ev.SendBytes, ReqID: ev.ReqID,
	})
	return 0
}

// runRecorded executes the program once on a fresh world and returns the
// per-rank event streams and final clocks.
func runRecorded(prog *minilang.Program, graph *psg.Graph, np int, useInterp bool) ([][]recEvent, []float64, error) {
	recs := make([]*recorder, np)
	world := mpisim.NewWorld(mpisim.Config{
		NP:   np,
		Seed: 1,
		HookFactory: func(rank int) []mpisim.Hook {
			recs[rank] = &recorder{}
			return []mpisim.Hook{recs[rank]}
		},
	})
	var res mpisim.RunResult
	var err error
	if useInterp {
		res, err = world.RunBlocking(interp.NewRunner(prog, graph).Execute)
	} else {
		var vp *vm.Program
		if vp, err = vm.Compile(prog, graph); err != nil {
			return nil, nil, err
		}
		res, err = world.Run(vm.NewRunner(vp).Stepper(np))
	}
	if err != nil {
		return nil, nil, err
	}
	streams := make([][]recEvent, np)
	for r, rec := range recs {
		streams[r] = rec.events
	}
	return streams, res.Clocks, nil
}

func FuzzVMvsInterp(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(2), uint8(6))
	f.Add(int64(3), uint8(8))
	f.Add(int64(42), uint8(5))
	f.Add(int64(1234567), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, npRaw uint8) {
		corpus, err := synth.Generate(synth.GenConfig{Seed: seed, Cases: 1})
		if err != nil {
			t.Skip() // generator rejects the seed; nothing to compare
		}
		app := corpus.Cases[0].App()
		np := 2 + int(npRaw)%7
		if np < app.MinNP {
			np = app.MinNP
		}
		prog, err := app.Parse()
		if err != nil {
			t.Fatalf("generated program does not parse: %v", err)
		}
		graph, err := psg.Build(prog, psg.DefaultOptions())
		if err != nil {
			t.Fatalf("generated program does not build a PSG: %v", err)
		}

		vmStreams, vmClocks, vmErr := runRecorded(prog, graph, np, false)
		inStreams, inClocks, inErr := runRecorded(prog, graph, np, true)
		// Failed runs abort ranks at racy points, so streams are only
		// comparable for successful runs; both engines must still agree
		// on whether the run fails.
		if (vmErr != nil) != (inErr != nil) {
			t.Fatalf("engines disagree on failure: vm err=%v, interp err=%v", vmErr, inErr)
		}
		if vmErr != nil {
			return
		}
		if !reflect.DeepEqual(vmClocks, inClocks) {
			t.Fatalf("final clocks diverge:\nvm:     %v\ninterp: %v", vmClocks, inClocks)
		}
		for r := 0; r < np; r++ {
			if len(vmStreams[r]) != len(inStreams[r]) {
				t.Fatalf("rank %d: vm emitted %d events, interp %d", r, len(vmStreams[r]), len(inStreams[r]))
			}
			for i := range vmStreams[r] {
				if vmStreams[r][i] != inStreams[r][i] {
					t.Fatalf("rank %d event %d diverges:\nvm:     %+v\ninterp: %+v", r, i, vmStreams[r][i], inStreams[r][i])
				}
			}
		}
	})
}
