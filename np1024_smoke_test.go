package scalana_test

import (
	"testing"
	"time"

	"scalana/internal/prof"

	scalana "scalana"
)

// TestSweepNP1024WithinBudget is the CI smoke for the headline scheduler
// claim: a full profiled np=1024 zeusmp sweep completes inside a CI-sized
// wall-clock budget. The scheduler is one loop over a ready heap and a
// simulated rank a machine in a slab, so this scale is an ordinary
// sub-second simulation (the budget leaves a few hundred times of headroom
// for a cold, loaded runner).
func TestSweepNP1024WithinBudget(t *testing.T) { sweepWithinBudget(t, 1024) }

// TestSweepNP8192WithinBudget is the same smoke at four times the paper's
// largest scale (2,048 processes): affordable because a parked rank is a
// continuation record and a few saved registers, not a goroutine stack.
func TestSweepNP8192WithinBudget(t *testing.T) { sweepWithinBudget(t, 8192) }

func sweepWithinBudget(t *testing.T, np int) {
	if testing.Short() {
		t.Skipf("np=%d smoke skipped in -short mode", np)
	}
	const budget = 60 * time.Second
	cfg := prof.DefaultConfig()
	cfg.SampleHz = 2000
	e := scalana.NewEngine()
	start := time.Now()
	runs, err := e.Sweep(scalana.GetApp("zeusmp"), []int{np}, scalana.SweepConfig{
		Parallelism: 1,
		Prof:        cfg,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].NP != np {
		t.Fatalf("sweep returned %d runs, want one np=%d run", len(runs), np)
	}
	if elapsed > budget {
		t.Errorf("np=%d sweep took %v, want under %v", np, elapsed, budget)
	}
	t.Logf("np=%d sweep completed in %v", np, elapsed)
}
