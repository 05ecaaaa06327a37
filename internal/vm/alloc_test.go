package vm_test

import (
	"fmt"
	"testing"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

// The VM's execution hot path must not allocate per statement: frames are
// reused per call depth and values live in registers. The test compares
// whole-run allocation counts of a short and a long loop — any
// per-iteration allocation makes the long program allocate more.

func loopProgram(t *testing.T, iters int) (*minilang.Program, *psg.Graph, *vm.Program) {
	t.Helper()
	src := fmt.Sprintf(`func main() {
	var sum = 0;
	for (var i = 0; i < %d; i = i + 1) {
		var x = i * 3 + (i %% 7);
		if (x > 10) {
			sum = sum + x;
		} else {
			sum = sum - 1;
		}
	}
}
`, iters)
	prog, err := minilang.Parse("alloc.mp", src)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := psg.Build(prog, psg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.Compile(prog, graph)
	if err != nil {
		t.Fatal(err)
	}
	return prog, graph, vp
}

func TestExecuteAllocsIndependentOfIterations(t *testing.T) {
	_, _, shortProg := loopProgram(t, 100)
	_, _, longProg := loopProgram(t, 10000)
	world := mpisim.NewWorld(mpisim.Config{NP: 1, Seed: 1})

	measure := func(vp *vm.Program) float64 {
		r := vm.NewRunner(vp)
		execute := func() {
			if _, err := world.Run(r.Stepper(1)); err != nil {
				t.Fatal(err)
			}
		}
		execute() // warm lazy state
		return testing.AllocsPerRun(20, execute)
	}
	short := measure(shortProg)
	long := measure(longProg)
	if long > short {
		t.Errorf("100x more iterations allocate more: %.1f allocs vs %.1f — the VM loop body allocates per iteration", long, short)
	}
	// A run allocates only its machine, register and call-stack slabs and
	// the result's clocks; keep a generous
	// bound so harness changes don't flake, while still catching
	// per-statement regressions.
	if short > 16 {
		t.Errorf("Execute allocates %.1f objects per run, want a small constant", short)
	}
}
