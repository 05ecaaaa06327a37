package scalana

import (
	"fmt"
	"strings"

	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// Tool names one measurement tool a run can attach: RunConfig.ToolName
// selects it by Name, and listings print Description.
type Tool struct {
	Name        string
	Description string
}

// Tools lists the measurement tools in name order.
func Tools() []Tool {
	out := make([]Tool, len(tools))
	for i, t := range tools {
		out[i] = t.Tool
	}
	return out
}

// NewToolRun prepares the collection state of the tool cfg.ToolName names
// for one run over graph. An unknown name is an error that names it.
func NewToolRun(cfg RunConfig, graph *psg.Graph) (ToolRun, error) {
	names := make([]string, len(tools))
	for i, t := range tools {
		if t.Name == cfg.ToolName {
			return t.newRun(cfg, graph), nil
		}
		names[i] = t.Name
	}
	return nil, fmt.Errorf("scalana: no measurement tool named %q (tools: %s)", cfg.ToolName, strings.Join(names, ", "))
}

// ToolRun is one run's collection state. The lifecycle is fixed:
//
//  1. HooksForRank is called once per rank, sequentially in rank order,
//     during world construction (before any rank executes).
//  2. The simulation runs; hooks observe their own rank only: its MPI
//     events, and virtual time as timer samples or advance by advance,
//     whichever of mpisim's optional interfaces they implement.
//  3. FinalizeRank is called once per rank, in rank order on the
//     goroutine that called RunCompiled, after the run completes.
//  4. Finish is called once, after every FinalizeRank returned, to
//     assemble the cross-rank payload RunOutput.Data carries.
//
// A run must be deterministic: given equal (App, NP, Seed, Prof), every
// hook decision and the finished payload are identical across runs and
// across host parallelism (DESIGN.md §4).
type ToolRun interface {
	// HooksForRank returns the simulator hooks attached to one rank. Every
	// hook receives the rank's MPI events (mpisim.Hook). One that samples
	// on a timer also implements mpisim.TimerSampler — it names its period
	// once and is called only when the rank's clock crosses a multiple of
	// it, at most one such hook a rank; one that must see every
	// virtual-time advance implements mpisim.AdvanceObserver, at the cost
	// of a call per executed statement.
	HooksForRank(rank int) []mpisim.Hook
	// FinalizeRank extracts the rank's measurement data and returns its
	// storage size in bytes (the tool-comparison experiments sum these).
	FinalizeRank(rank int) (storageBytes int64)
	// Finish returns the tool-specific payload for RunOutput.Data —
	// e.g. per-rank profiles plus an assembled Program Performance Graph.
	Finish() (data any, err error)
}
