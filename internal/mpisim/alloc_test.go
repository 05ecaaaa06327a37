package mpisim

import "testing"

// Steady-state allocation regression tests for the event arena work: the
// per-rank event scratch, channels that queue only their in-flight sends,
// request pooling, and the collective slot freelist. All ops here run direct-drive on the test
// goroutine (sends are eager and post before their receives, so nothing
// blocks and the scheduler baton is never needed), which keeps
// testing.AllocsPerRun meaningful on the 1-CPU CI container.

func TestSteadyStateP2PAllocs(t *testing.T) {
	w := NewWorld(Config{NP: 2, Seed: 1})
	s, r := w.Proc(0), w.Proc(1)
	pair := func() {
		s.Send(1, 7, 64)
		r.Recv(0, 7, 64)
		sq := s.Isend(1, 8, 32)
		rq := r.Irecv(0, 8, 32)
		r.Wait(rq.ID())
		s.Wait(sq.ID())
	}
	for i := 0; i < 100; i++ {
		pair() // warm the slab, pools, and channel maps
	}
	// 4 messages per run, each consumed before the next is posted: the
	// channels' queues never grow and the requests recycle.
	if allocs := testing.AllocsPerRun(200, pair); allocs > 0 {
		t.Errorf("steady-state p2p ops average %.2f allocs/run, want 0", allocs)
	}
}

func TestSteadyStateWaitallAllocs(t *testing.T) {
	w := NewWorld(Config{NP: 2, Seed: 1})
	s, r := w.Proc(0), w.Proc(1)
	round := func() {
		for i := 0; i < 8; i++ {
			s.Isend(1, i, 16)
			r.Irecv(0, i, 16)
		}
		s.Waitall()
		r.Waitall()
	}
	for i := 0; i < 50; i++ {
		round()
	}
	// Waitall must not copy the request order and must recycle every
	// request it completes.
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("steady-state waitall rounds average %.2f allocs/run, want 0", allocs)
	}
}

func TestSteadyStateP2PAllocsNP256(t *testing.T) {
	// Same gate at np=256: per-channel state, the ready heap, and the
	// request pools must not start allocating as the rank count grows.
	// Every rank posts its ring send before any recv claims it, so the
	// whole round stays direct-drive (nothing blocks).
	const np = 256
	w := NewWorld(Config{NP: np, Seed: 1})
	round := func() {
		for r := 0; r < np; r++ {
			w.Proc(r).Send((r+1)%np, 3, 64)
		}
		for r := 0; r < np; r++ {
			w.Proc(r).Recv((r+np-1)%np, 3, 64)
		}
	}
	// A channel holds only its in-flight sends, by value, in the queue it
	// was carved with: after the round that creates the channels nothing
	// allocates.
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs > 0 {
		t.Errorf("steady-state np=256 ring rounds average %.2f allocs/run, want 0", allocs)
	}
}

func TestSteadyStateCollectiveAllocs(t *testing.T) {
	// An NP=1 world completes collectives inline, so the freelist path
	// runs without goroutine coordination.
	w := NewWorld(Config{NP: 1, Seed: 1})
	p := w.Proc(0)
	round := func() {
		p.Allreduce(64)
		p.Barrier()
	}
	for i := 0; i < 20; i++ {
		round()
	}
	// Slots, their arrivals, and their waiter lists recycle through the
	// freelist. The old implementation allocated a fresh done channel per
	// collective; run-to-block slots are plain counters, so steady state
	// is allocation-free.
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("steady-state collective rounds average %.2f allocs/run, want 0", allocs)
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	w := NewWorld(Config{NP: 1, Seed: 1, HookFactory: func(rank int) Hook {
		return &chargingHook{}
	}})
	p := w.Proc(0)
	ev := Event{Kind: EvSend, Op: "mpi_send", Peer: 0, Tag: 1, Bytes: 64, DepRank: -1, Root: -1}
	p.emit(&ev)
	if allocs := testing.AllocsPerRun(100, func() { p.emit(&ev) }); allocs > 0 {
		t.Errorf("emit averages %.2f allocs, want 0 (events stage in per-rank scratch)", allocs)
	}
}
