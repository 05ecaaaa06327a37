package scalana

import (
	"fmt"

	"scalana/internal/commmatrix"
	"scalana/internal/hpctk"
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
	{Tool{"commmatrix", "communication-volume collector: per-vertex send/recv bytes and message counts plus the rank-to-rank traffic matrix"},
		func(cfg RunConfig, _ *psg.Graph) ToolRun {
			return newPerRank(cfg.NP, func(rank int) *commmatrix.Collector { return commmatrix.New(rank, cfg.NP) },
				(*commmatrix.Collector).Comm, func(ranks []*commmatrix.RankComm) (any, error) { return commmatrix.Assemble(ranks) })
		}},
	{Tool{"hpctk", "HPCToolkit-like call-path profiler: pure calling-context sampling, no inter-process dependence"},
		func(cfg RunConfig, _ *psg.Graph) ToolRun {
			return newPerRank(cfg.NP, hpctk.New, (*hpctk.Profiler).Profile, ranksAsPayload[*hpctk.RankProfile])
		}},
	{Tool{"scalana", "graph-based profiler: sampled per-vertex performance + compressed communication dependence (the paper's tool)"}, newScalAnaRun},
	{Tool{"tracer", "Scalasca-like tracer: every MPI event and region transition logged as a timestamped record"},
		func(cfg RunConfig, _ *psg.Graph) ToolRun {
			return newPerRank(cfg.NP, trace.New, (*trace.Tracer).Trace, ranksAsPayload[*trace.RankTrace])
		}},
}

// ScalAnaData is the payload of the "scalana" tool: per-rank profiles
// plus the assembled Program Performance Graph.
type ScalAnaData struct {
	Profiles []*prof.RankProfile
	PPG      *ppg.Graph
}

// newScalAnaRun attaches the graph-based profiler, the paper's tool. Every
// rank's profiler storage comes out of the run's slabs.
func newScalAnaRun(cfg RunConfig, graph *psg.Graph) ToolRun {
	pc := cfg.Prof
	if pc.Seed == 0 {
		pc.Seed = cfg.Seed
	}
	profilers := prof.NewProfilers(pc, graph, cfg.NP)
	return newPerRank(cfg.NP, func(rank int) *prof.Profiler { return &profilers[rank] }, (*prof.Profiler).Profile,
		func(profiles []*prof.RankProfile) (any, error) {
			pg, err := ppg.Build(graph, profiles)
			if err != nil {
				return nil, fmt.Errorf("assemble PPG: %w", err)
			}
			return &ScalAnaData{Profiles: profiles, PPG: pg}, nil
		})
}

// rankData is what a tool keeps of one rank: it knows its storage size.
type rankData interface{ StorageBytes() int64 }

// perRank is the ToolRun of every tool: each rank carries one hook H, from
// which Finish reads the rank's data D; assemble turns the ranks' data, in
// rank order, into the payload.
type perRank[H mpisim.Hook, D rankData] struct {
	hooks    []H
	data     func(H) D
	assemble func([]D) (any, error)
}

// newPerRank builds every rank's hook up front, in rank order.
func newPerRank[H mpisim.Hook, D rankData](np int, hook func(rank int) H, data func(H) D, assemble func([]D) (any, error)) ToolRun {
	r := &perRank[H, D]{hooks: make([]H, np), data: data, assemble: assemble}
	for rank := range r.hooks {
		r.hooks[rank] = hook(rank)
	}
	return r
}

func (r *perRank[H, D]) HookForRank(rank int) mpisim.Hook { return r.hooks[rank] }

func (r *perRank[H, D]) Finish() (any, int64, error) {
	ranks := make([]D, len(r.hooks))
	var storage int64
	for rank, h := range r.hooks {
		ranks[rank] = r.data(h)
		storage += ranks[rank].StorageBytes()
	}
	payload, err := r.assemble(ranks)
	return payload, storage, err
}

// ranksAsPayload is the assemble step of a tool whose payload is the
// ranks' data itself.
func ranksAsPayload[D any](ranks []D) (any, error) { return ranks, nil }
