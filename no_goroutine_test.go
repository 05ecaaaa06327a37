package scalana_test

import (
	"runtime"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/mpisim"
	"scalana/internal/vm"

	scalana "scalana"
)

// goroutineGauge is an every-advance hook that records the largest
// runtime.NumGoroutine() any Advance call saw.
type goroutineGauge struct{ peak int }

var _ mpisim.AdvanceObserver = (*goroutineGauge)(nil)

func (g *goroutineGauge) Advance(*mpisim.Proc, float64, float64, mpisim.AdvanceKind, mpisim.Ctx, machine.Vec) float64 {
	if n := runtime.NumGoroutine(); n > g.peak {
		g.peak = n
	}
	return 0
}
func (g *goroutineGauge) MPIEvent(*mpisim.Proc, *mpisim.Event) float64 { return 0 }

// TestProductionRunStartsNoGoroutine is the structural gate behind
// "ranks without goroutines": while zeusmp simulates 256 ranks, the
// process never holds more goroutines than it did before the run. A rank
// is a machine in a slab, and the scheduler a loop on the caller's
// goroutine. The world is built the way RunCompiled builds it, with the
// gauge as every rank's hook. (Finalization, after the last hook call,
// runs on the same goroutine.)
func TestProductionRunStartsNoGoroutine(t *testing.T) {
	const np = 256
	app := scalana.GetApp("zeusmp")
	prog, graph, err := scalana.Compile(app)
	if err != nil {
		t.Fatal(err)
	}
	code, err := vm.Compile(prog, graph)
	if err != nil {
		t.Fatal(err)
	}
	gauge := &goroutineGauge{}
	wcfg := mpisim.Config{NP: np, MemSpeed: app.MemSpeed, HookFactory: func(int) mpisim.Hook { return gauge }}
	before := runtime.NumGoroutine()
	if _, err := mpisim.NewWorld(wcfg).Run(vm.NewRunner(code).Stepper(np)); err != nil {
		t.Fatal(err)
	}
	if gauge.peak == 0 || gauge.peak > before {
		t.Errorf("peak goroutine count during the run = %d, want 1..%d (the count before it)", gauge.peak, before)
	}
}
