package mpisim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"scalana/internal/machine"
)

func newTestWorld(np int) *World {
	return NewWorld(Config{NP: np, Seed: 1})
}

func TestSendRecvTiming(t *testing.T) {
	w := newTestWorld(2)
	net := w.cfg.Net
	const bytes = 1 << 20
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 0, bytes)
		} else {
			p.Recv(0, 0, bytes)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r1 := w.Proc(1).Clock
	// Receiver time: its own entry overhead is absorbed while waiting for
	// the arrival (sender overhead + injection copy + latency), then the
	// local copy: o + G*bytes + L + G*bytes.
	want := net.Overhead + bytes*net.PerByte + net.Latency + bytes*net.PerByte
	if math.Abs(r1-want) > 1e-12 {
		t.Errorf("recv completion = %g, want %g", r1, want)
	}
}

func TestMessagesMatchInOrder(t *testing.T) {
	// Two sends on the same channel must match the receives in order:
	// the second recv cannot complete before the second send's arrival.
	w := newTestWorld(2)
	var waits []float64
	w.cfg.HookFactory = nil
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 7, 100)
			p.Compute(1e7, 0, 0, 64) // delay before second send
			p.Send(1, 7, 100)
		} else {
			p.Recv(0, 7, 100)
			t0 := p.Clock
			p.Recv(0, 7, 100)
			waits = append(waits, p.Clock-t0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] <= 1e-3 {
		t.Errorf("second recv should wait for the delayed second send: %v", waits)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 0, 64)
			// Sender proceeds immediately; its clock is just overhead+copy.
			if p.Clock > 1e-4 {
				t.Errorf("eager send blocked: clock %g", p.Clock)
			}
			p.Barrier()
		} else {
			p.Compute(1e8, 0, 0, 64) // receive very late
			p.Recv(0, 0, 64)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonBlockingWaitall(t *testing.T) {
	w := newTestWorld(3)
	_, err := w.RunBlocking(func(p *Proc) {
		next := (p.Rank + 1) % 3
		prev := (p.Rank + 2) % 3
		p.Irecv(prev, 1, 4096)
		p.Irecv(next, 2, 4096)
		p.Isend(next, 1, 4096)
		p.Isend(prev, 2, 4096)
		if p.Outstanding() != 4 {
			t.Errorf("rank %d: %d outstanding, want 4", p.Rank, p.Outstanding())
		}
		p.Waitall()
		if p.Outstanding() != 0 {
			t.Errorf("rank %d: %d outstanding after waitall", p.Rank, p.Outstanding())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallDependsOnLatestArrival(t *testing.T) {
	var events []*Event
	cfg := Config{NP: 3, Seed: 1}
	cfg.HookFactory = func(rank int) []Hook {
		if rank != 0 {
			return nil
		}
		return []Hook{&captureHook{events: &events}}
	}
	w := NewWorld(cfg)
	_, err := w.RunBlocking(func(p *Proc) {
		switch p.Rank {
		case 0:
			p.Irecv(1, 0, 64)
			p.Irecv(2, 0, 64)
			p.Waitall()
		case 1:
			p.Send(0, 0, 64) // fast sender
		case 2:
			p.Compute(5e7, 0, 0, 64) // slow sender
			p.Send(0, 0, 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var wa *Event
	for _, ev := range events {
		if ev.Kind == EvWaitall {
			wa = ev
		}
	}
	if wa == nil {
		t.Fatal("no waitall event captured")
	}
	if wa.DepRank != 2 {
		t.Errorf("waitall dependence = rank %d, want 2 (the slow sender)", wa.DepRank)
	}
	if wa.Wait <= 0 {
		t.Errorf("waitall wait = %g, want > 0", wa.Wait)
	}
	if wa.Requests != 2 {
		t.Errorf("waitall completed %d requests, want 2", wa.Requests)
	}
}

type captureHook struct {
	events *[]*Event
}

func (h *captureHook) Advance(p *Proc, from, to float64, kind AdvanceKind, ctx any, pmu machine.Vec) float64 {
	return 0
}
func (h *captureHook) MPIEvent(p *Proc, ev *Event) float64 {
	cp := *ev
	*h.events = append(*h.events, &cp)
	return 0
}

func TestCollectiveStragglerDependence(t *testing.T) {
	var events []*Event
	cfg := Config{NP: 4, Seed: 1}
	cfg.HookFactory = func(rank int) []Hook {
		if rank != 0 {
			return nil
		}
		return []Hook{&captureHook{events: &events}}
	}
	w := NewWorld(cfg)
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 2 {
			p.Compute(1e8, 0, 0, 64)
		}
		p.Allreduce(8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	ev := events[0]
	if !ev.Collective || ev.Op != "mpi_allreduce" {
		t.Errorf("event = %+v", ev)
	}
	if ev.DepRank != 2 {
		t.Errorf("collective dependence = rank %d, want straggler 2", ev.DepRank)
	}
	if ev.Wait <= 0 {
		t.Errorf("wait = %g", ev.Wait)
	}
}

func TestCollectiveEqualizesClocks(t *testing.T) {
	w := newTestWorld(5)
	_, err := w.RunBlocking(func(p *Proc) {
		p.Compute(float64(p.Rank+1)*1e6, 0, 0, 64)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	first := w.Proc(0).Clock
	for r := 1; r < 5; r++ {
		if math.Abs(w.Proc(r).Clock-first) > 1e-12 {
			t.Errorf("rank %d clock %g != rank 0 clock %g after barrier", r, w.Proc(r).Clock, first)
		}
	}
}

func TestCollectiveOpMismatchFails(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Barrier()
		} else {
			p.Allreduce(8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("expected collective mismatch error, got %v", err)
	}
}

func TestCollectiveRootMismatchFails(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.RunBlocking(func(p *Proc) {
		p.Bcast(p.Rank, 64) // different roots
	})
	if err == nil || !strings.Contains(err.Error(), "root") {
		t.Errorf("expected root mismatch error, got %v", err)
	}
}

func TestCollectiveCostGrowsWithScale(t *testing.T) {
	cost4 := NewWorld(Config{NP: 4}).collCost("mpi_allreduce", 8, 4)
	cost64 := NewWorld(Config{NP: 64}).collCost("mpi_allreduce", 8, 64)
	if cost64 <= cost4 {
		t.Errorf("allreduce cost should grow with np: %g <= %g", cost64, cost4)
	}
	a2a4 := NewWorld(Config{NP: 4}).collCost("mpi_alltoall", 1024, 4)
	a2a64 := NewWorld(Config{NP: 64}).collCost("mpi_alltoall", 1024, 64)
	if a2a64 <= a2a4*4 {
		t.Errorf("alltoall cost should grow ~linearly with np: %g vs %g", a2a64, a2a4)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.RunBlocking(func(p *Proc) {
		next := (p.Rank + 1) % 4
		prev := (p.Rank + 3) % 4
		for i := 0; i < 3; i++ {
			p.Sendrecv(next, 5, 2048, prev, 5, 2048)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if w.Proc(r).Clock <= 0 {
			t.Errorf("rank %d made no progress", r)
		}
	}
}

func TestRecvAnyMatchesOnlySender(t *testing.T) {
	w := newTestWorld(3)
	got := -1
	_, err := w.RunBlocking(func(p *Proc) {
		switch p.Rank {
		case 0:
			got = p.RecvAny(9, 128)
		case 2:
			p.Send(0, 9, 128)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("RecvAny matched rank %d, want 2", got)
	}
}

func TestIrecvAnyResolvedAtWait(t *testing.T) {
	var events []*Event
	cfg := Config{NP: 2, Seed: 1}
	cfg.HookFactory = func(rank int) []Hook {
		if rank != 0 {
			return nil
		}
		return []Hook{&captureHook{events: &events}}
	}
	w := NewWorld(cfg)
	_, err := w.RunBlocking(func(p *Proc) {
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
	var wait *Event
	for _, ev := range events {
		if ev.Kind == EvWait {
			wait = ev
		}
	}
	if wait == nil {
		t.Fatal("no wait event")
	}
	if wait.Peer != 1 || wait.DepRank != 1 {
		t.Errorf("wildcard wait resolved to peer %d dep %d, want 1", wait.Peer, wait.DepRank)
	}
}

func TestPanicOnOneRankAbortsRun(t *testing.T) {
	w := newTestWorld(4)
	start := time.Now()
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 3 {
			panic("boom")
		}
		p.Barrier() // would deadlock forever without abort propagation
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected boom error, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("abort took too long; propagation broken")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Detection is exact and instant: the test completes the moment the
	// ready heap drains (no timeout knob exists anymore — the deprecated
	// DeadlockTimeout no-op was removed; see DESIGN.md §11).
	w := NewWorld(Config{NP: 2})
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Recv(1, 0, 64) // rank 1 never sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestDeadlockDiagnosticNamesEveryBlockedRank(t *testing.T) {
	// Two ranks in a recv cycle: each waits for a message the other never
	// sends. The exact detector must fire the moment the ready heap
	// drains and name both ranks with their pending operations.
	start := time.Now()
	w := NewWorld(Config{NP: 2})
	_, err := w.RunBlocking(func(p *Proc) {
		p.Recv(1-p.Rank, 7, 64)
	})
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		"2 rank(s) blocked forever",
		"rank 0: blocked in recv from rank 1 tag 7",
		"rank 1: blocked in recv from rank 0 tag 7",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock diagnostic missing %q:\n%s", want, msg)
		}
	}
	// Exact detection replaces the old wall-clock timeout: the report must
	// arrive without waiting anything like the deprecated 60s default.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadlock detection took %v, want immediate", elapsed)
	}
}

func TestDeadlockDiagnosticCollective(t *testing.T) {
	// Rank 1 joins the barrier; rank 0 blocks in a recv first, so the
	// collective never completes. The report must show both block states.
	w := NewWorld(Config{NP: 2})
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Recv(1, 3, 64) // rank 1 is already in the barrier
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 0: blocked in recv from rank 1 tag 3") {
		t.Errorf("diagnostic missing rank 0 recv block:\n%s", msg)
	}
	if !strings.Contains(msg, "rank 1: blocked in mpi_barrier #0 (collective missing participants)") {
		t.Errorf("diagnostic missing rank 1 collective block:\n%s", msg)
	}
}

func TestDirectDriveBlockingPanics(t *testing.T) {
	// Outside World.Run there is no scheduler and no peer to wake a
	// blocked rank; a blocking operation must fail loudly instead of
	// parking forever.
	w := NewWorld(Config{NP: 2})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected panic from blocking recv outside World.Run")
		}
		if msg := fmt.Sprint(rec); !strings.Contains(msg, "outside World.Run") {
			t.Errorf("panic message %q does not explain the direct-drive restriction", msg)
		}
	}()
	w.Proc(0).Recv(1, 0, 64) // no matching send posted: would block
}

func TestInvalidPeerFails(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(5, 0, 64)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected peer range error, got %v", err)
	}
}

func TestWaitUnknownRequestFails(t *testing.T) {
	w := newTestWorld(1)
	_, err := w.RunBlocking(func(p *Proc) {
		p.Wait(42)
	})
	if err == nil || !strings.Contains(err.Error(), "unknown request") {
		t.Errorf("expected unknown-request error, got %v", err)
	}
}

func TestMixedWildcardSpecificRejected(t *testing.T) {
	w := NewWorld(Config{NP: 2})
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank == 0 {
			// Specific recv claims seq 0, then a wildcard tries to steal
			// from the same channel: rejected by design.
			p.Recv(1, 4, 64)
			p.RecvAny(4, 64)
		} else {
			p.Send(0, 4, 64)
			p.Send(0, 4, 64)
		}
	})
	// Either a deadlock (wildcard never matches a specific-claimed
	// channel) or an explicit mixing panic is acceptable; silence is not.
	if err == nil {
		t.Error("mixing wildcard and specific receives should fail loudly")
	}
}

func TestDeterminismUnderConcurrency(t *testing.T) {
	run := func() []float64 {
		w := newTestWorld(8)
		_, err := w.RunBlocking(func(p *Proc) {
			next := (p.Rank + 1) % 8
			prev := (p.Rank + 7) % 8
			for i := 0; i < 10; i++ {
				p.Compute(float64(1+p.Rank)*1e5, 1e3, 1e3, 4096)
				p.Irecv(prev, 1, 2048)
				p.Isend(next, 1, 2048)
				p.Waitall()
				if i%3 == 0 {
					p.Allreduce(8)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 8)
		for r := range out {
			out[r] = w.Proc(r).Clock
		}
		return out
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		for r := range got {
			if got[r] != first[r] {
				t.Fatalf("trial %d rank %d clock %g != %g", trial, r, got[r], first[r])
			}
		}
	}
}

func TestPerturbAccounting(t *testing.T) {
	w := newTestWorld(1)
	res, err := w.RunBlocking(func(p *Proc) {
		p.Compute(1e6, 0, 0, 64)
		p.Perturb(0.5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PerturbTotal-0.5) > 1e-12 {
		t.Errorf("PerturbTotal = %g", res.PerturbTotal)
	}
	if res.Elapsed < 0.5 {
		t.Errorf("perturbation must advance the clock: %g", res.Elapsed)
	}
}

func TestHookOverheadCharged(t *testing.T) {
	charge := &chargingHook{}
	cfg := Config{NP: 1, Seed: 1}
	cfg.HookFactory = func(rank int) []Hook { return []Hook{charge} }
	w := NewWorld(cfg)
	res, err := w.RunBlocking(func(p *Proc) {
		p.Compute(1e6, 0, 0, 64)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerturbTotal <= 0 {
		t.Error("hook-returned overhead was not charged")
	}
	if charge.sawPerturb == 0 {
		t.Error("hooks should observe perturb advances")
	}
}

type chargingHook struct {
	sawPerturb int
}

func (h *chargingHook) Advance(p *Proc, from, to float64, kind AdvanceKind, ctx any, pmu machine.Vec) float64 {
	if kind == AdvPerturb {
		h.sawPerturb++
		return 1e9 // must be ignored, or the run would never finish
	}
	return 1e-6
}
func (h *chargingHook) MPIEvent(p *Proc, ev *Event) float64 { return 2e-6 }

func TestRandDeterministicPerRank(t *testing.T) {
	w1 := newTestWorld(2)
	w2 := newTestWorld(2)
	var a, b [2]float64
	w1.RunBlocking(func(p *Proc) { a[p.Rank] = p.Rand() })
	w2.RunBlocking(func(p *Proc) { b[p.Rank] = p.Rand() })
	if a != b {
		t.Errorf("per-rank RNG not deterministic: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Error("ranks should have different RNG streams")
	}
}

func TestEventKindAndAdvanceKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvSend, EvRecv, EvIsend, EvIrecv, EvWait, EvWaitall, EvSendrecv, EvCollective} {
		if k.String() == "event" {
			t.Errorf("EventKind %d has no name", k)
		}
	}
	for _, k := range []AdvanceKind{AdvCompute, AdvGlue, AdvMPIOverhead, AdvTransfer, AdvWait, AdvPerturb} {
		if k.String() == "advance" {
			t.Errorf("AdvanceKind %d has no name", k)
		}
	}
}

// TestRunResultCounters pins the simulator's own event counts on a run
// small enough to count by hand: rank 0 receives (entry overhead, a
// yield, the wait, the copy), rank 1 computes and sends (compute, entry
// overhead, injection).
func TestRunResultCounters(t *testing.T) {
	body := func(p *Proc) {
		if p.Rank == 0 {
			p.Recv(1, 0, 64)
		} else {
			p.Compute(1e6, 0, 0, 64)
			p.Send(0, 0, 64)
		}
	}
	res, err := newTestWorld(2).RunBlocking(body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advances != 6 || res.Events != 2 || res.Yields != 1 || res.Samples != 0 {
		t.Errorf("bare run counted %d advances, %d events, %d yields, %d samples; want 6, 2, 1, 0",
			res.Advances, res.Events, res.Yields, res.Samples)
	}
	// A hook that charges for every advance and every event adds one
	// perturbation advance behind each of them — and takes no sample: what
	// an every-advance observer charges is not the timer's.
	cfg := Config{NP: 2, Seed: 1, HookFactory: func(rank int) []Hook { return []Hook{&chargingHook{}} }}
	res, err = NewWorld(cfg).RunBlocking(body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advances != 6+6+2 || res.Events != 2 || res.Yields != 1 || res.Samples != 0 {
		t.Errorf("charged run counted %d advances, %d events, %d yields, %d samples; want 14, 2, 1, 0",
			res.Advances, res.Events, res.Yields, res.Samples)
	}
	// A 1 µs timer fires on rank 1's compute, on rank 0's wait for it, and
	// on the entry overhead of rank 1's send: three charged advances, and
	// one perturbation advance behind each.
	cfg.HookFactory = func(rank int) []Hook { return []Hook{&timerOnly{period: 1e-6, cost: 1e-9}} }
	res, err = NewWorld(cfg).RunBlocking(body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advances != 6+3 || res.Events != 2 || res.Yields != 1 || res.Samples != 3 {
		t.Errorf("sampled run counted %d advances, %d events, %d yields, %d samples; want 9, 2, 1, 3",
			res.Advances, res.Events, res.Yields, res.Samples)
	}
}

// TestInboxIndexedPastScanLimit sends one rank more (source, tag) pairs
// than an inbox scans and checks every message still finds its channel.
func TestInboxIndexedPastScanLimit(t *testing.T) {
	const np, tags = 4, 4
	w := newTestWorld(np)
	var got [np][tags]float64
	_, err := w.RunBlocking(func(p *Proc) {
		if p.Rank != 0 {
			for tag := 0; tag < tags; tag++ {
				p.Send(0, tag, float64(100*p.Rank+tag))
			}
			return
		}
		for src := np - 1; src >= 1; src-- {
			for tag := tags - 1; tag >= 0; tag-- {
				req := p.Irecv(src, tag, 0)
				p.Wait(req.ID())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	in := &w.matcher.inboxes[0]
	if len(in.list) != (np-1)*tags || in.index == nil {
		t.Fatalf("rank 0 inbox: %d channels, index %v; want %d channels behind an index", len(in.list), in.index != nil, (np-1)*tags)
	}
	for _, e := range in.list {
		if in.index[e.srcTag] != e.ch || len(e.ch.sends) != 1 {
			t.Fatalf("channel %+v: index and list disagree, or %d sends, want 1", e.srcTag, len(e.ch.sends))
		}
		got[e.src][e.tag] = e.ch.sends[0].bytes
	}
	for src := 1; src < np; src++ {
		for tag := 0; tag < tags; tag++ {
			if want := float64(100*src + tag); got[src][tag] != want {
				t.Errorf("channel %d->0 tag %d carried %g bytes, want %g", src, tag, got[src][tag], want)
			}
		}
	}
}

// TestCollectiveWindowStaysShort runs many collectives with ranks at
// different paces: the live window never holds more than the collective
// some ranks are still leaving and the one others are already entering.
func TestCollectiveWindowStaysShort(t *testing.T) {
	w := newTestWorld(4)
	longest := 0
	_, err := w.RunBlocking(func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Compute(float64((p.Rank+i)%3)*1e5, 0, 0, 64)
			p.Allreduce(8)
			p.Barrier()
			if n := len(w.colls.live); n > longest {
				longest = n
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if longest > 2 || len(w.colls.live) != 0 || w.colls.base != 400 {
		t.Errorf("window reached %d slots, ends with %d live at base %d; want at most 2, then 0 at 400",
			longest, len(w.colls.live), w.colls.base)
	}
}
