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

// ToolRun is one run's collection state. The lifecycle is two calls:
//
//  1. HookForRank is called once per rank, sequentially in rank order,
//     during world construction (before any rank executes). The hook sees
//     its own rank only: its MPI events, and virtual time as timer samples
//     (mpisim.TimerSampler) or advance by advance (mpisim.AdvanceObserver,
//     a call per executed statement), whichever interface it implements.
//  2. Finish is called once, on the goroutine that called RunCompiled,
//     after the run completes.
//
// A run must be deterministic: given equal (App, NP, Seed, Prof), every
// hook decision and the finished payload are identical across runs and
// across host parallelism (DESIGN.md §4).
type ToolRun interface {
	// HookForRank returns the simulator hook attached to one rank.
	HookForRank(rank int) mpisim.Hook
	// Finish collects each rank's measurement data in rank order and
	// returns the payload for RunOutput.Data — e.g. per-rank profiles plus
	// an assembled Program Performance Graph — and the ranks' storage
	// sizes summed (the tool-comparison experiments read it).
	Finish() (data any, storageBytes int64, err error)
}
