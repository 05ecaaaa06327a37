package vm_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// TestRegisterIsOneWord: a register is one pointer-free 8-byte word, so a
// run's register slab is np × registers × 8 bytes the collector never scans.
// Setting up a run is a fixed number of allocations whatever np is, and its
// bytes a rank stay under what 40 one-word registers, the machine and one
// frame need — a sixth of what the 48-byte {float64, string, []float64}
// register took.
func TestRegisterIsOneWord(t *testing.T) {
	if size, kind := unsafe.Sizeof(vm.Value(0)), reflect.TypeOf(vm.Value(0)).Kind(); size != 8 || kind != reflect.Float64 {
		t.Fatalf("vm.Value is %d bytes of kind %v, want one float64 word", size, kind)
	}
	const regs, np = 40, 1024
	var src strings.Builder
	src.WriteString("func main() {\n")
	for i := 0; i < regs; i++ {
		fmt.Fprintf(&src, "\tvar v%d = %d;\n", i, i)
	}
	src.WriteString("}\n")
	prog, err := minilang.Parse("regs.mp", src.String())
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
	r := vm.NewRunner(vp)
	var step mpisim.Stepper
	if allocs := testing.AllocsPerRun(10, func() { step = r.Stepper(np) }); allocs > 4 {
		t.Errorf("Stepper(%d) makes %.0f allocations, want the machine, register and frame slabs and the closure", np, allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step = r.Stepper(np)
	runtime.ReadMemStats(&after)
	perRank := float64(after.TotalAlloc-before.TotalAlloc) / np
	if budget := float64(regs*8 + 200); perRank < regs*8 || perRank > budget {
		t.Errorf("Stepper(%d) allocates %.0f bytes a rank, want %d for the registers and at most %.0f in all", np, perRank, regs*8, budget)
	}
	if _, err := mpisim.NewWorld(mpisim.Config{NP: np, Seed: 1}).Run(step); err != nil {
		t.Fatal(err)
	}
}
