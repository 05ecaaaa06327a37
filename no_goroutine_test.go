package scalana_test

import (
	"runtime"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/mpisim"

	scalana "scalana"
)

// goroutineGauge is a measurement tool that records the largest
// runtime.NumGoroutine() any Advance hook call saw.
type goroutineGauge struct{ peak int }

func (g *goroutineGauge) Name() string        { return "goroutine-gauge" }
func (g *goroutineGauge) Description() string { return "test tool: peak goroutine count during a run" }
func (g *goroutineGauge) NewRun(scalana.ToolContext) (scalana.ToolRun, error) {
	g.peak = 0
	return g, nil
}
func (g *goroutineGauge) HooksForRank(int) []mpisim.Hook { return []mpisim.Hook{g} }
func (g *goroutineGauge) FinalizeRank(int) int64         { return 0 }
func (g *goroutineGauge) Finish() (any, error)           { return g.peak, nil }

func (g *goroutineGauge) Advance(*mpisim.Proc, float64, float64, mpisim.AdvanceKind, any, machine.Vec) float64 {
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
// goroutine. (Finalization's par.ForEach fans out after the last hook
// call and is outside the gate.)
func TestProductionRunStartsNoGoroutine(t *testing.T) {
	scalana.RegisterTool(&goroutineGauge{})
	before := runtime.NumGoroutine()
	out, err := scalana.NewEngine().Run(scalana.RunConfig{App: scalana.GetApp("zeusmp"), NP: 256, ToolName: "goroutine-gauge"})
	if err != nil {
		t.Fatal(err)
	}
	if peak := out.Measurement.Data().(int); peak == 0 || peak > before {
		t.Errorf("peak goroutine count during the run = %d, want 1..%d (the count before it)", peak, before)
	}
}
