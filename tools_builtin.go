package scalana

import (
	"fmt"

	"scalana/internal/hpctk"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/trace"
)

// The bundled measurement tools register like any external one; nothing
// in the dispatch path knows their names.
func init() {
	RegisterTool(scalAnaTool{})
	RegisterTool(tracerTool{})
	RegisterTool(callPathTool{})
}

// ---- "scalana": the graph-based profiler (paper's tool) ----

type scalAnaTool struct{}

func (scalAnaTool) Name() string { return "scalana" }
func (scalAnaTool) Description() string {
	return "graph-based profiler: sampled per-vertex performance + compressed communication dependence (the paper's tool)"
}

func (scalAnaTool) NewRun(tc ToolContext) (ToolRun, error) {
	pc := tc.Config.Prof
	if pc.SampleHz == 0 {
		pc = prof.DefaultConfig()
		pc.Seed = tc.Config.Seed
	}
	np := tc.Config.NP
	// Every rank's profiler storage comes out of the run's slabs, and so
	// do the one-hook lists the simulator asks for rank by rank.
	r := &scalAnaRun{
		graph:     tc.Graph,
		profilers: prof.NewProfilers(pc, tc.Graph, np),
		hooks:     make([]mpisim.Hook, np),
		profiles:  make([]*prof.RankProfile, np),
	}
	for rank := range r.hooks {
		r.hooks[rank] = &r.profilers[rank]
	}
	return r, nil
}

type scalAnaRun struct {
	graph     *psg.Graph
	profilers []prof.Profiler
	hooks     []mpisim.Hook
	profiles  []*prof.RankProfile
}

func (r *scalAnaRun) HooksForRank(rank int) []mpisim.Hook {
	return r.hooks[rank : rank+1 : rank+1]
}

func (r *scalAnaRun) FinalizeRank(rank int) int64 {
	r.profiles[rank] = r.profilers[rank].Profile()
	return r.profiles[rank].StorageBytes()
}

func (r *scalAnaRun) Finish() (any, error) {
	pg, err := ppg.Build(r.graph, r.profiles)
	if err != nil {
		return nil, fmt.Errorf("assemble PPG: %w", err)
	}
	return &ScalAnaData{Profiles: r.profiles, PPG: pg}, nil
}

// ObserveIndirect forwards runtime indirect-call resolutions to the
// resolving rank's profiler (paper §III-B3).
func (r *scalAnaRun) ObserveIndirect(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
	r.profilers[rank].ObserveIndirect(rank, inst, site, target)
}

var _ IndirectObserver = (*scalAnaRun)(nil)

// ---- "tracer": the Scalasca-like tracing baseline ----

type tracerTool struct{}

func (tracerTool) Name() string { return "tracer" }
func (tracerTool) Description() string {
	return "Scalasca-like tracer: every MPI event and region transition logged as a timestamped record"
}

func (tracerTool) NewRun(tc ToolContext) (ToolRun, error) {
	np := tc.Config.NP
	return &tracerRun{
		tracers: make([]*trace.Tracer, np),
		traces:  make([]*trace.RankTrace, np),
	}, nil
}

type tracerRun struct {
	tracers []*trace.Tracer
	traces  []*trace.RankTrace
}

func (r *tracerRun) HooksForRank(rank int) []mpisim.Hook {
	tr := trace.New(trace.DefaultConfig(), rank)
	r.tracers[rank] = tr
	return []mpisim.Hook{tr}
}

func (r *tracerRun) FinalizeRank(rank int) int64 {
	r.traces[rank] = r.tracers[rank].Trace()
	return r.traces[rank].StorageBytes()
}

func (r *tracerRun) Finish() (any, error) { return r.traces, nil }

// ---- "hpctk": the HPCToolkit-like call-path profiling baseline ----

type callPathTool struct{}

func (callPathTool) Name() string { return "hpctk" }
func (callPathTool) Description() string {
	return "HPCToolkit-like call-path profiler: pure calling-context sampling, no inter-process dependence"
}

func (callPathTool) NewRun(tc ToolContext) (ToolRun, error) {
	np := tc.Config.NP
	return &callPathRun{
		profilers: make([]*hpctk.Profiler, np),
		profiles:  make([]*hpctk.RankProfile, np),
	}, nil
}

type callPathRun struct {
	profilers []*hpctk.Profiler
	profiles  []*hpctk.RankProfile
}

func (r *callPathRun) HooksForRank(rank int) []mpisim.Hook {
	pr := hpctk.New(hpctk.DefaultConfig(), rank)
	r.profilers[rank] = pr
	return []mpisim.Hook{pr}
}

func (r *callPathRun) FinalizeRank(rank int) int64 {
	r.profiles[rank] = r.profilers[rank].Profile()
	return r.profiles[rank].StorageBytes()
}

func (r *callPathRun) Finish() (any, error) { return r.profiles, nil }
