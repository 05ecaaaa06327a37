package interp

import (
	"strings"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

func mustRun(t *testing.T, src string, np int) mpisim.RunResult {
	t.Helper()
	out, _ := mustRunBoth(t, src, np)
	return out.RunResult
}

func mustFail(t *testing.T, src string, np int, substr string) {
	t.Helper()
	prog := minilang.MustParse("t.mp", src)
	_, err := runBoth(t, prog, psg.MustBuild(prog), np)
	if err == nil {
		t.Fatalf("expected error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

// TestAllCollectives drives every collective builtin through both
// engines.
func TestAllCollectives(t *testing.T) {
	res := mustRun(t, `
func main() {
	mpi_barrier();
	mpi_bcast(0, 1024);
	mpi_reduce(0, 512);
	mpi_allreduce(8);
	mpi_alltoall(256);
	mpi_allgather(128);
}`, 4)
	if res.Elapsed <= 0 {
		t.Error("collectives cost no time")
	}
}

// TestBlockingPairsAndWaits drives send/recv, isend/irecv/wait, and
// sendrecv together.
func TestBlockingPairsAndWaits(t *testing.T) {
	mustRun(t, `
func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	var next = (rank + 1) % np;
	var prev = (rank - 1 + np) % np;
	// sendrecv ring
	mpi_sendrecv(next, 1, 512, prev, 1, 512);
	// explicit wait on a single request
	var r = mpi_irecv(prev, 2, 256);
	mpi_isend(next, 2, 256);
	mpi_wait(r);
	// waitall over several requests
	var r2 = mpi_irecv(prev, 3, 64);
	var r3 = mpi_irecv(next, 4, 64);
	mpi_isend(next, 3, 64);
	mpi_isend(prev, 4, 64);
	mpi_waitall();
}`, 4)
}

// TestWildcardBuiltins drives recv_any and irecv_any.
func TestWildcardBuiltins(t *testing.T) {
	mustRun(t, `
func main() {
	if (mpi_rank() == 0) {
		var src1 = mpi_recv_any(7, 64);
		var r = mpi_irecv_any(8, 64);
		mpi_wait(r);
	}
	if (mpi_rank() == 1) {
		mpi_send(0, 7, 64);
		mpi_send(0, 8, 64);
	}
}`, 2)
}

func TestRuntimeErrors(t *testing.T) {
	mustFail(t, `func main() { var x = 1 / 0; }`, 1, "division by zero")
	mustFail(t, `func main() { var x = 1 % 0; }`, 1, "modulo by zero")
	mustFail(t, `func main() { var a = alloc(0 - 3); }`, 1, "negative length")
	mustFail(t, `func main() { var x = 3; var y = x[0]; }`, 1, "not an array")
	mustFail(t, `func main() { var x = 3; x[0] = 1; }`, 1, "not an array")
	mustFail(t, `func main() { var a = alloc(2); var y = a[9]; }`, 1, "out of range")
	mustFail(t, `func main() { var x = 1; var f = x; f(2); }`, 1, "does not hold a function")
	mustFail(t, `func main() { var a = alloc(2); var y = a + 1; }`, 1, "must be a number")
	mustFail(t, `func main() { var a = alloc(2); if (a) { } }`, 1, "must be a number")
	mustFail(t, `func main() { var x = len(3); }`, 1, "len of non-array")
	mustFail(t, `func main() { mpi_send(99, 0, 8); }`, 2, "out of range")
	mustFail(t, `func main() { mpi_wait(123); }`, 1, "unknown request")
}

func TestMathBuiltins(t *testing.T) {
	out, _ := mustRunBoth(t, `
func main() {
	print(sqrt(81), log2(8), exp(0), floor(2.9), ceil(2.1), abs(0 - 5), log(1));
}`, 1)
	if want := "[rank 0] 9 3 1 2 3 5 0\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// The right operand of && must not evaluate when the left is false;
	// otherwise the out-of-range index would fault.
	mustRun(t, `
func main() {
	var a = alloc(1);
	var i = 5;
	if (i < 1 && a[i] > 0) {
		a[0] = 1;
	}
	if (i >= 1 || a[i] > 0) {
		a[0] = 2;
	}
}`, 1)
}

func TestElseIfChains(t *testing.T) {
	out, _ := mustRunBoth(t, `
func classify(x) {
	if (x < 0) { return 0 - 1; }
	else if (x == 0) { return 0; }
	else if (x < 10) { return 1; }
	else { return 2; }
}
func main() {
	print(classify(0 - 5), classify(0), classify(5), classify(50));
}`, 1)
	if want := "[rank 0] -1 0 1 2\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestNestedFunctionCallsAcrossInstances(t *testing.T) {
	out, _ := mustRunBoth(t, `
func inner(x) { return x * x; }
func outer(x) { return inner(x) + inner(x + 1); }
func main() {
	print(outer(2) + outer(3));
}`, 1)
	// outer(2)=4+9=13, outer(3)=9+16=25 -> 38
	if want := "[rank 0] 38\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestWhileWithBreakContinue(t *testing.T) {
	out, _ := mustRunBoth(t, `
func main() {
	var s = 0;
	var i = 0;
	while (1 == 1) {
		i = i + 1;
		if (i % 2 == 0) { continue; }
		if (i > 9) { break; }
		s = s + i;
	}
	print(s); // 1+3+5+7+9 = 25
}`, 1)
	if want := "[rank 0] 25\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

// TestVertexAttributionDuringRun verifies Proc.Ctx tracks the PSG: an MPI
// op's event carries the MPI vertex, compute carries its Comp vertex.
func TestVertexAttributionDuringRun(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func main() {
	compute(1e6, 1e3, 1e3, 4096);
	mpi_barrier();
}`)
	g := psg.MustBuild(prog)
	code, err := vm.Compile(prog, g)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*mpisim.World) (mpisim.RunResult, error){
		"interp": func(w *mpisim.World) (mpisim.RunResult, error) { return w.RunBlocking(NewRunner(prog, g).Execute) },
		"vm":     func(w *mpisim.World) (mpisim.RunResult, error) { return w.Run(vm.NewRunner(code).Stepper(w.NP())) },
	} {
		var events []*mpisim.Event
		hook := &ctxCapture{events: &events}
		world := mpisim.NewWorld(mpisim.Config{NP: 2, HookFactory: func(rank int) []mpisim.Hook {
			if rank == 0 {
				return []mpisim.Hook{hook}
			}
			return nil
		}})
		if _, err := run(world); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(events) != 1 {
			t.Fatalf("%s: %d events", name, len(events))
		}
		v, ok := events[0].Ctx.(*psg.Vertex)
		if !ok || v.Kind != psg.KindMPI || v.Name != "mpi_barrier" {
			t.Errorf("%s: event ctx = %v", name, events[0].Ctx)
		}
	}
}

type ctxCapture struct{ events *[]*mpisim.Event }

func (h *ctxCapture) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx any, pmu machine.Vec) float64 {
	return 0
}
func (h *ctxCapture) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	cp := *ev
	*h.events = append(*h.events, &cp)
	return 0
}
