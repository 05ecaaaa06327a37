package scalana

import (
	"fmt"

	"scalana/internal/commmatrix"
	"scalana/internal/hpctk"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/ppg"
	"scalana/internal/prof"
	"scalana/internal/psg"
	"scalana/internal/trace"
)

// tools is every measurement tool, sorted by name: what RunConfig.ToolName
// resolves against and what Tools lists.
var tools = []struct {
	Tool
	newRun func(RunConfig, *psg.Graph) ToolRun
}{
	{Tool{"commmatrix", "communication-volume collector: per-vertex send/recv bytes and message counts plus the rank-to-rank traffic matrix"}, newCommMatrixRun},
	{Tool{"hpctk", "HPCToolkit-like call-path profiler: pure calling-context sampling, no inter-process dependence"}, newCallPathRun},
	{Tool{"scalana", "graph-based profiler: sampled per-vertex performance + compressed communication dependence (the paper's tool)"}, newScalAnaRun},
	{Tool{"tracer", "Scalasca-like tracer: every MPI event and region transition logged as a timestamped record"}, newTracerRun},
}

// ---- "scalana": the graph-based profiler (paper's tool) ----

// ScalAnaData is the payload of the "scalana" tool: per-rank profiles
// plus the assembled Program Performance Graph.
type ScalAnaData struct {
	Profiles []*prof.RankProfile
	PPG      *ppg.Graph
}

func newScalAnaRun(cfg RunConfig, graph *psg.Graph) ToolRun {
	pc := cfg.Prof
	if pc.SampleHz == 0 {
		pc = prof.DefaultConfig()
		pc.Seed = cfg.Seed
	}
	np := cfg.NP
	// Every rank's profiler storage comes out of the run's slabs, and so
	// do the one-hook lists the simulator asks for rank by rank.
	r := &scalAnaRun{
		graph:     graph,
		profilers: prof.NewProfilers(pc, graph, np),
		hooks:     make([]mpisim.Hook, np),
		profiles:  make([]*prof.RankProfile, np),
	}
	for rank := range r.hooks {
		r.hooks[rank] = &r.profilers[rank]
	}
	return r
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

func newTracerRun(cfg RunConfig, _ *psg.Graph) ToolRun {
	return &tracerRun{
		tracers: make([]*trace.Tracer, cfg.NP),
		traces:  make([]*trace.RankTrace, cfg.NP),
	}
}

type tracerRun struct {
	tracers []*trace.Tracer
	traces  []*trace.RankTrace
}

func (r *tracerRun) HooksForRank(rank int) []mpisim.Hook {
	tr := trace.New(rank)
	r.tracers[rank] = tr
	return []mpisim.Hook{tr}
}

func (r *tracerRun) FinalizeRank(rank int) int64 {
	r.traces[rank] = r.tracers[rank].Trace()
	return r.traces[rank].StorageBytes()
}

func (r *tracerRun) Finish() (any, error) { return r.traces, nil }

// ---- "hpctk": the HPCToolkit-like call-path profiling baseline ----

func newCallPathRun(cfg RunConfig, _ *psg.Graph) ToolRun {
	return &callPathRun{
		profilers: make([]*hpctk.Profiler, cfg.NP),
		profiles:  make([]*hpctk.RankProfile, cfg.NP),
	}
}

type callPathRun struct {
	profilers []*hpctk.Profiler
	profiles  []*hpctk.RankProfile
}

func (r *callPathRun) HooksForRank(rank int) []mpisim.Hook {
	pr := hpctk.New(rank)
	r.profilers[rank] = pr
	return []mpisim.Hook{pr}
}

func (r *callPathRun) FinalizeRank(rank int) int64 {
	r.profiles[rank] = r.profilers[rank].Profile()
	return r.profiles[rank].StorageBytes()
}

func (r *callPathRun) Finish() (any, error) { return r.profiles, nil }

// ---- "commmatrix": the communication-volume collector ----

func newCommMatrixRun(cfg RunConfig, _ *psg.Graph) ToolRun {
	return &commMatrixRun{
		collectors: make([]*commmatrix.Collector, cfg.NP),
		ranks:      make([]*commmatrix.RankComm, cfg.NP),
	}
}

type commMatrixRun struct {
	collectors []*commmatrix.Collector
	ranks      []*commmatrix.RankComm
}

func (r *commMatrixRun) HooksForRank(rank int) []mpisim.Hook {
	c := commmatrix.New(rank, len(r.collectors))
	r.collectors[rank] = c
	return []mpisim.Hook{c}
}

func (r *commMatrixRun) FinalizeRank(rank int) int64 {
	r.ranks[rank] = r.collectors[rank].Comm()
	return r.ranks[rank].StorageBytes()
}

// Finish assembles the dense traffic matrix, a *commmatrix.Matrix.
func (r *commMatrixRun) Finish() (any, error) { return commmatrix.Assemble(r.ranks) }
