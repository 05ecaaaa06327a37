package mpisim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"scalana/internal/machine"
)

// The differential test of the two ways into the scheduler: one program,
// run as a blocking Go body through the RunBlocking adapter and as a
// hand-rolled stepper through World.Run, must produce the same RunResult
// and the same event stream — there is one scheduler and one
// implementation of each operation, and this is what notices a second one
// growing.

// op is one step of a rank's program; like the Proc operations it wraps,
// it reports false when the rank parked.
type op func(p *Proc) bool

// always lifts a non-blocking operation into an op.
func always(f func(p *Proc)) op { return func(p *Proc) bool { f(p); return true } }

// dualProgram returns each rank's program for a 4-rank world, and the
// slices its receives-from-any record their sources in. With boom set,
// rank 3 panics where it would have sent rank 2 the message that unblocks
// everyone else.
func dualProgram(boom bool) (prog [4][]op, sources *[4][]int, waitallYields *int64) {
	sources, waitallYields = new([4][]int), new(int64)
	var parkedAny [4]bool
	compute := func(flops float64) op { return always(func(p *Proc) { p.Compute(flops, 1e3, 1e3, 4096) }) }
	ctx := func(label string) op { return always(func(p *Proc) { p.Ctx = label }) }
	recvAny := func(tag int) []op {
		return []op{
			func(p *Proc) bool {
				src := p.RecvAny(tag, 8)
				if parkedAny[p.Rank] = src == Parked; src != Parked {
					sources[p.Rank] = append(sources[p.Rank], src)
				}
				return src != Parked
			},
			always(func(p *Proc) {
				if parkedAny[p.Rank] {
					sources[p.Rank] = append(sources[p.Rank], p.MatchedSource())
				}
			}),
		}
	}
	// Every rank ends the same way: a ring exchange, a request waited on
	// alone, an allreduce and a barrier.
	tail := func(r int) []op {
		var req int
		return []op{
			ctx(fmt.Sprintf("tail-%d", r)),
			func(p *Proc) bool { return p.Sendrecv((r+1)%4, 5, 256, (r+3)%4, 5, 256) },
			always(func(p *Proc) { req = p.Irecv((r+2)%4, 6, 32).ID() }),
			compute(float64(1+r) * 1e5),
			always(func(p *Proc) { p.Send((r+2)%4, 6, 32) }),
			func(p *Proc) bool { return p.Wait(req) },
			func(p *Proc) bool { return p.Allreduce(64) },
			func(p *Proc) bool { return p.Barrier() },
		}
	}

	// Rank 0 opens with a Waitall over two receives whose senders are both
	// late, rank 2 later than rank 1 and only after rank 0 has been woken
	// once: the Waitall parks twice.
	prog[0] = []op{
		ctx("waitall"),
		always(func(p *Proc) { p.Irecv(1, 1, 64); p.Irecv(2, 2, 64); p.Isend(3, 4, 16) }),
		func(p *Proc) bool { return p.Waitall() },
		always(func(p *Proc) { *waitallYields = p.yields }),
		func(p *Proc) bool { return p.Barrier() },
	}
	// The first wildcard receive parks (nothing is posted yet), the second
	// finds rank 2's message waiting.
	prog[0] = append(prog[0], recvAny(9)...)
	prog[0] = append(prog[0], recvAny(9)...)
	prog[1] = []op{
		ctx("sender-1"),
		compute(1e6),
		always(func(p *Proc) { p.Send(0, 1, 64) }),
		func(p *Proc) bool { return p.Barrier() },
		always(func(p *Proc) { p.Send(0, 9, 8) }),
	}
	prog[2] = []op{
		ctx("sender-2"),
		compute(1e6),
		func(p *Proc) bool { return p.Recv(3, 3, 8) },
		always(func(p *Proc) { p.Send(0, 2, 64) }),
		func(p *Proc) bool { return p.Barrier() },
		compute(3e6),
		always(func(p *Proc) { p.Send(0, 9, 8) }),
	}
	prog[3] = []op{
		ctx("sender-3"),
		compute(5e6),
		always(func(p *Proc) {
			if boom {
				panic("boom")
			}
			p.Send(2, 3, 8)
		}),
		func(p *Proc) bool { return p.Recv(0, 4, 16) },
		func(p *Proc) bool { return p.Barrier() },
	}
	for r := range prog {
		prog[r] = append(prog[r], tail(r)...)
	}
	return prog, sources, waitallYields
}

// eventLog copies every event and counts advances, per rank.
type eventLog struct {
	events   [4][]Event
	advances [4]int
}

func (l *eventLog) Advance(p *Proc, from, to float64, kind AdvanceKind, ctx any, pmu machine.Vec) float64 {
	l.advances[p.Rank]++
	return 0
}

func (l *eventLog) MPIEvent(p *Proc, ev *Event) float64 {
	l.events[p.Rank] = append(l.events[p.Rank], *ev)
	return 1e-7 // charged, so the perturbation path is compared too
}

type dualOutcome struct {
	Result        RunResult
	Err           string
	Log           *eventLog
	Sources       [4][]int
	WaitallYields int64
}

func runDual(boom, blocking bool) dualOutcome {
	log := &eventLog{}
	w := NewWorld(Config{NP: 4, Seed: 1, HookFactory: func(int) Hook { return log }})
	prog, sources, waitallYields := dualProgram(boom)
	var res RunResult
	var err error
	if blocking {
		res, err = w.RunBlocking(func(p *Proc) {
			for _, o := range prog[p.Rank] {
				o(p) // under the adapter an operation that parks blocks
			}
		})
	} else {
		var pc [4]int
		res, err = w.Run(func(p *Proc) bool {
			for ops := prog[p.Rank]; pc[p.Rank] < len(ops); {
				o := ops[pc[p.Rank]]
				pc[p.Rank]++
				if !o(p) {
					return false
				}
			}
			return true
		})
	}
	return dualOutcome{Result: res, Err: fmt.Sprint(err), Log: log, Sources: *sources, WaitallYields: *waitallYields}
}

func TestStepperMatchesBlockingBody(t *testing.T) {
	stepped, blocked := runDual(false, false), runDual(false, true)
	if stepped.Err != "<nil>" {
		t.Fatalf("stepper run failed: %s", stepped.Err)
	}
	if !reflect.DeepEqual(stepped, blocked) {
		t.Errorf("the stepper and the blocking body diverge:\nstepper:  %+v\nblocking: %+v", stepped, blocked)
	}
	if stepped.WaitallYields != 2 {
		t.Errorf("rank 0's Waitall parked %d times, want 2 (once a late sender)", stepped.WaitallYields)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(stepped.Sources[0], want) {
		t.Errorf("rank 0's wildcard receives matched %v, want %v", stepped.Sources[0], want)
	}
	if stepped.Result.Yields < 8 || stepped.Result.Events == 0 {
		t.Errorf("the program exercised too little: %+v", stepped.Result)
	}
}

// TestPanicWhileOthersParked: rank 3 dies while rank 0 is parked in a
// Waitall, rank 1 in a barrier and rank 2 in a receive. Both entry points
// report that one error with the same partial results, and the adapter
// leaves no body goroutine behind.
func TestPanicWhileOthersParked(t *testing.T) {
	baseline := runtime.NumGoroutine()
	stepped, blocked := runDual(true, false), runDual(true, true)
	if want := "rank 3: boom"; stepped.Err != want || blocked.Err != want {
		t.Fatalf("errors: stepper %q, blocking %q, want %q both", stepped.Err, blocked.Err, want)
	}
	if !reflect.DeepEqual(stepped, blocked) {
		t.Errorf("the aborted runs diverge:\nstepper:  %+v\nblocking: %+v", stepped, blocked)
	}
	if stepped.Result.Yields != 3 {
		t.Errorf("%d ranks were parked when rank 3 died, want 3", stepped.Result.Yields)
	}
	// An unwound body has handed control back just before its goroutine
	// exits; give the last one a few scheduling points to finish.
	for i := 0; i < 1000 && runtime.NumGoroutine() > baseline; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the aborted adapter run, %d before it", n, baseline)
	}
}
