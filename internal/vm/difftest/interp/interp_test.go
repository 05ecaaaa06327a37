package interp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

// outcome is everything a MiniMP run lets a test observe.
type outcome struct {
	mpisim.RunResult
	Stdout   string
	Indirect []string // resolved indirect-call targets, in resolution order
}

// runBoth executes prog at np ranks on the oracle and on the bytecode VM
// — the engine every shipped binary runs — and fails the test unless the
// two agree: same error text, or same per-rank clocks, elapsed time,
// print() output and observed indirect calls. It returns the VM's
// outcome, so every assertion a caller makes is an assertion on the VM.
func runBoth(t testing.TB, prog *minilang.Program, g *psg.Graph, np int) (outcome, error) {
	t.Helper()
	code, err := vm.Compile(prog, g)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	var outs [2]outcome
	var errs [2]error
	for i := range outs {
		var sb strings.Builder
		out := &outs[i]
		observe := func(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
			out.Indirect = append(out.Indirect, target)
		}
		world := mpisim.NewWorld(mpisim.Config{NP: np})
		if i == 0 {
			r := NewRunner(prog, g)
			r.Stdout, r.OnIndirect = &sb, observe
			out.RunResult, errs[i] = world.RunBlocking(r.Execute)
		} else {
			r := vm.NewRunner(code)
			r.Stdout, r.OnIndirect = &sb, observe
			out.RunResult, errs[i] = world.Run(r.Stepper(np))
		}
		out.Stdout = sb.String()
	}
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		t.Fatalf("engines disagree on the error:\ninterp: %v\nvm:     %v", errs[0], errs[1])
	}
	if errs[1] == nil && !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("engines disagree on the outcome:\ninterp: %+v\nvm:     %+v", outs[0], outs[1])
	}
	return outs[1], errs[1]
}

// mustRunBoth is runBoth on source text; a failing run fails the test.
func mustRunBoth(t testing.TB, src string, np int) (outcome, *psg.Graph) {
	t.Helper()
	prog, err := minilang.Parse("test.mp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := psg.Build(prog, psg.DefaultOptions())
	if err != nil {
		t.Fatalf("psg: %v", err)
	}
	out, err := runBoth(t, prog, g, np)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out, g
}

func runSource(t *testing.T, src string, np int) (mpisim.RunResult, *psg.Graph) {
	t.Helper()
	out, g := mustRunBoth(t, src, np)
	return out.RunResult, g
}

func TestSequentialArithmetic(t *testing.T) {
	out, _ := mustRunBoth(t, `
func main() {
	var x = 3;
	var y = x * 4 + 2;
	var z = pow(2, 10);
	print("y=", y, "z=", z, "mod=", 17 % 5);
}
`, 1)
	got := out.Stdout
	want := "[rank 0] y= 14 z= 1024 mod= 2\n"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestPingPong(t *testing.T) {
	res, _ := runSource(t, `
func main() {
	var rank = mpi_rank();
	if (rank == 0) {
		mpi_send(1, 7, 1024);
		mpi_recv(1, 8, 1024);
	} else {
		mpi_recv(0, 7, 1024);
		mpi_send(0, 8, 1024);
	}
}
`, 2)
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed = %g, want > 0", res.Elapsed)
	}
}

func TestComputeAdvancesClockProportionally(t *testing.T) {
	small, _ := runSource(t, `
func main() {
	compute(1e6, 1e5, 1e4, 1024);
}
`, 1)
	big, _ := runSource(t, `
func main() {
	compute(1e8, 1e7, 1e6, 1024);
}
`, 1)
	ratio := big.Elapsed / small.Elapsed
	if ratio < 50 || ratio > 200 {
		t.Errorf("100x flops should be ~100x time, got ratio %.2f (small=%g big=%g)",
			ratio, small.Elapsed, big.Elapsed)
	}
}

func TestCollectiveSynchronizesClocks(t *testing.T) {
	// Rank 3 computes 10x longer; after the barrier all clocks must be >=
	// the straggler's arrival.
	res, _ := runSource(t, `
func main() {
	var rank = mpi_rank();
	if (rank == 3) {
		compute(2e8, 1e6, 1e6, 4096);
	} else {
		compute(2e6, 1e4, 1e4, 4096);
	}
	mpi_barrier();
}
`, 4)
	minClock := math.Inf(1)
	for _, c := range res.Clocks {
		minClock = math.Min(minClock, c)
	}
	if res.Elapsed-minClock > res.Elapsed*0.01 {
		t.Errorf("barrier should equalize clocks: min %g max %g", minClock, res.Elapsed)
	}
}

func TestNonBlockingHaloExchange(t *testing.T) {
	res, _ := runSource(t, `
func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	var left = (rank - 1 + np) % np;
	var right = (rank + 1) % np;
	for (var it = 0; it < 5; it = it + 1) {
		var r1 = mpi_irecv(left, 1, 8192);
		var r2 = mpi_irecv(right, 2, 8192);
		mpi_isend(right, 1, 8192);
		mpi_isend(left, 2, 8192);
		compute(1e6, 2e5, 1e5, 65536);
		mpi_waitall();
	}
	mpi_allreduce(8);
}
`, 8)
	if res.Elapsed <= 0 {
		t.Fatal("no progress")
	}
	for r, c := range res.Clocks {
		if c <= 0 {
			t.Errorf("rank %d clock = %g", r, c)
		}
	}
}

func TestRecvAnyReturnsSource(t *testing.T) {
	out, _ := mustRunBoth(t, `
func main() {
	var rank = mpi_rank();
	if (rank == 0) {
		var src = mpi_recv_any(5, 64);
		print("got from", src);
	} else {
		mpi_send(0, 5, 64);
	}
}
`, 2)
	if want := "[rank 0] got from 1\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestUserFunctionsAndRecursion(t *testing.T) {
	out, _ := mustRunBoth(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() {
	print("fib10=", fib(10));
}
`, 1)
	if want := "[rank 0] fib10= 55\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestIndirectCallResolvesAndRuns(t *testing.T) {
	out, g := mustRunBoth(t, `
func double(x) { return x * 2; }
func triple(x) { return x * 3; }
func main() {
	var f = &double;
	if (mpi_rank() % 2 == 1) {
		f = &triple;
	}
	print("r=", f(7));
}
`, 1)
	if want := "[rank 0] r= 14\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
	if len(out.Indirect) != 1 || out.Indirect[0] != "double" {
		t.Errorf("indirect observations = %v, want [double]", out.Indirect)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Errorf("graph invariants after refinement: %v", err)
	}
}

func TestArraysAndWhile(t *testing.T) {
	out, _ := mustRunBoth(t, `
func main() {
	var a = alloc(10);
	var i = 0;
	while (i < 10) {
		a[i] = i * i;
		i = i + 1;
	}
	var sum = 0;
	for (var j = 0; j < len(a); j = j + 1) {
		sum = sum + a[j];
	}
	print("sum=", sum);
}
`, 1)
	if want := "[rank 0] sum= 285\n"; out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	src := `
func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	for (var it = 0; it < 3; it = it + 1) {
		compute(1e6 * (rank + 1), 1e4, 1e4, 32768);
		mpi_sendrecv((rank + 1) % np, 1, 4096, (rank - 1 + np) % np, 1, 4096);
		mpi_allreduce(8);
	}
}
`
	a, _ := runSource(t, src, 6)
	b, _ := runSource(t, src, 6)
	if a.Elapsed != b.Elapsed {
		t.Errorf("non-deterministic elapsed: %g vs %g", a.Elapsed, b.Elapsed)
	}
	for r := range a.Clocks {
		if a.Clocks[r] != b.Clocks[r] {
			t.Errorf("rank %d clock differs: %g vs %g", r, a.Clocks[r], b.Clocks[r])
		}
	}
}

// TestUnboundedRecursionFailsTheRank: a call stack is data with a fixed
// depth limit, so runaway recursion is a positioned rank error on both
// engines (runBoth compares the text) instead of a host stack overflow.
func TestUnboundedRecursionFailsTheRank(t *testing.T) {
	prog := minilang.MustParse("r.mp", "func f(n) { return f(n + 1); }\nfunc main() { f(0); }\n")
	_, err := runBoth(t, prog, psg.MustBuild(prog), 2)
	want := fmt.Sprintf(`rank 0: r.mp:1:20: call to "f" exceeds the call depth limit of %d`, vm.MaxCallDepth)
	if err == nil || err.Error() != want {
		t.Fatalf("unbounded recursion: error %v, want %q", err, want)
	}
}

// TestRunawayLoopFailsTheRank: a rank has a budget of backward jumps and
// calls, counted the same way by both engines (runBoth compares the
// text), so a program that never ends is a positioned rank error: at the
// loop when only the loop spends, at the call when both do and the call
// is the step that overdraws.
func TestRunawayLoopFailsTheRank(t *testing.T) {
	for src, pos := range map[string]string{
		"func main() { while (1) { } }\n": "1:15",
		"func f() { return 1; }\nfunc main() { for (var i = 0; i >= 0; i = i + 1) { f(); } }\n": "2:52",
	} {
		prog := minilang.MustParse("r.mp", src)
		_, err := runBoth(t, prog, psg.MustBuild(prog), 2)
		want := fmt.Sprintf("rank 0: r.mp:%s: rank exceeds the step budget of %d backward jumps and calls", pos, vm.MaxSteps)
		if err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
}

// TestDeepRecursionGrowsTheStack recurses to just under the limit —
// through an indirect call too — and exchanges a message at the bottom: the
// VM's register file outgrows its slab share, and rank 1 parks and resumes
// on the grown stack.
func TestDeepRecursionGrowsTheStack(t *testing.T) {
	src := fmt.Sprintf(`
func down(n, g) {
	if (n == 0) {
		if (mpi_rank() == 0) {
			compute(1e6, 0, 0, 64);
			mpi_send(1, 3, 8);
			return 0;
		}
		return mpi_recv_any(3, 8) + 1;
	}
	var below = g(n - 1, g);
	return below + n;
}
func main() {
	var g = &down;
	print("sum=", down(%d, g));
}
`, vm.MaxCallDepth-2)
	out, _ := mustRunBoth(t, src, 2)
	n := vm.MaxCallDepth - 2
	want := fmt.Sprintf("[rank 0] sum= %d\n[rank 1] sum= %d\n", n*(n+1)/2, n*(n+1)/2+1)
	if out.Stdout != want {
		t.Errorf("output = %q, want %q", out.Stdout, want)
	}
}

func TestRuntimeErrorPropagatesAsError(t *testing.T) {
	prog := minilang.MustParse("test.mp", `
func main() {
	var a = alloc(2);
	a[5] = 1;
}
`)
	if _, err := runBoth(t, prog, psg.MustBuild(prog), 2); err == nil {
		t.Fatal("expected out-of-range error, got nil")
	}
}
