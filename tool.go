package scalana

import (
	"fmt"
	"sort"
	"sync"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// MeasurementTool is one pluggable measurement backend. The paper's
// evaluation (§VI, Table II) is a comparison *between* such tools —
// graph-based profiling versus tracing versus call-path profiling — so
// the run API treats the tool as an open extension point: implementations
// register under a stable name with RegisterTool, and Run/RunCompiled
// dispatch purely through the registry. The bundled backends ("scalana",
// "tracer", "hpctk", and the comm-matrix collector) are ordinary
// registered implementations with no special-cased dispatch.
//
// Implementations must be deterministic: given equal (App, NP, Seed,
// tool config), every hook decision and every finalized result must be
// identical across runs and across host parallelism. Randomness must
// come from seeds derived from ToolContext, never from time or global
// state (see DESIGN.md §8 for the full contract).
type MeasurementTool interface {
	// Name is the registry key: short, lowercase, stable across releases
	// (it appears in CLI flags and reports).
	Name() string
	// Description is a one-line human-readable summary for tool listings.
	Description() string
	// NewRun prepares the collection state for one execution. It is
	// called once per run, before any rank starts, and must not mutate
	// the shared ToolContext.Graph.
	NewRun(tc ToolContext) (ToolRun, error)
}

// ToolContext carries the per-run inputs a MeasurementTool needs to set
// up collection.
type ToolContext struct {
	// Config is the full run configuration: App, NP, Seed, and Prof for
	// the bundled ScalAna profiler.
	Config RunConfig
	// Graph is the compiled PSG the run executes against. It is shared
	// and immutable during execution; tools may read it freely.
	Graph *psg.Graph
}

// ToolRun is one run's collection state. The lifecycle is fixed:
//
//  1. HooksForRank is called once per rank, sequentially in rank order,
//     during world construction (before any rank executes).
//  2. The simulation runs; hooks observe their own rank only: its MPI
//     events, and virtual time as timer samples or advance by advance,
//     whichever of mpisim's optional interfaces they implement.
//  3. FinalizeRank is called once per rank, concurrently across ranks,
//     after the run completes. It must touch rank-local state only.
//  4. Finish is called once, after every FinalizeRank returned, to
//     assemble the cross-rank payload stored in the Measurement.
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
	// Finish returns the tool-specific payload for Measurement.Data —
	// e.g. per-rank profiles plus an assembled Program Performance Graph.
	Finish() (data any, err error)
}

// IndirectObserver is optionally implemented by a ToolRun that wants
// runtime indirect-call resolutions (paper §III-B3). When implemented,
// the VM reports every resolved indirect call; rank is the resolving
// rank, and calls arrive one at a time, on the goroutine that called
// RunCompiled, in the order the scheduler steps the ranks.
type IndirectObserver interface {
	ObserveIndirect(rank int, inst *psg.Instance, site minilang.NodeID, target string)
}

var toolRegistry = struct {
	sync.RWMutex
	m map[string]MeasurementTool
}{m: map[string]MeasurementTool{}}

// RegisterTool makes a measurement tool selectable by name through
// RunConfig.ToolName. It panics if the tool is nil, its name is empty,
// or the name is already taken — duplicate registration is always a
// programming error (two packages claiming one name), never a runtime
// condition, mirroring database/sql.Register.
func RegisterTool(t MeasurementTool) {
	if t == nil {
		panic("scalana: RegisterTool: tool is nil")
	}
	name := t.Name()
	if name == "" {
		panic("scalana: RegisterTool: tool has an empty name")
	}
	toolRegistry.Lock()
	defer toolRegistry.Unlock()
	if _, dup := toolRegistry.m[name]; dup {
		panic(fmt.Sprintf("scalana: RegisterTool: tool %q already registered", name))
	}
	toolRegistry.m[name] = t
}

// LookupTool returns the tool registered under name.
func LookupTool(name string) (MeasurementTool, bool) {
	toolRegistry.RLock()
	defer toolRegistry.RUnlock()
	t, ok := toolRegistry.m[name]
	return t, ok
}

// Tools returns the registered tool names in sorted order.
func Tools() []string {
	toolRegistry.RLock()
	defer toolRegistry.RUnlock()
	names := make([]string, 0, len(toolRegistry.m))
	for name := range toolRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
