package scalana

import (
	"fmt"

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
	{Tool{"hpctk", "HPCToolkit-like call-path profiler: pure calling-context sampling, no inter-process dependence"},
		func(cfg RunConfig, g *psg.Graph) ToolRun {
			hook := func(rank int) *hpctk.Profiler { return hpctk.New(g, rank) }
			return newPerRank(cfg.NP, hook, (*hpctk.Profiler).Profile, ranksAsPayload[*hpctk.RankProfile])
		}},
	{Tool{"scalana", "graph-based profiler: sampled per-vertex performance + compressed communication dependence (the paper's tool)"}, newScalAnaRun},
	{Tool{"tracer", "Scalasca-like tracer: every MPI event and region transition logged as a timestamped record"},
		func(cfg RunConfig, _ *psg.Graph) ToolRun {
			return newPerRank(cfg.NP, trace.New, (*trace.Tracer).Trace, ranksAsPayload[*trace.RankTrace])
		}},
}

// ScalAnaData is the payload of the "scalana" tool: per-rank profiles
// plus the assembled Program Performance Graph. The profiles are
// read-only: each one's Vertex is its rank's row of PPG.Perf, so an edit
// would change the graph behind the totals and medians Finish computed.
// Copy a Vertex before perturbing it.
type ScalAnaData struct {
	Profiles []*prof.RankProfile
	PPG      *ppg.Graph
}

// newScalAnaRun attaches the graph-based profiler, the paper's tool. Every
// rank's profiler storage comes out of the run's slabs, and its vertex
// data is its row of the PPG's block: the builder opens first, the
// profilers write the block in place, and Finish adds the ranks.
func newScalAnaRun(cfg RunConfig, graph *psg.Graph) ToolRun {
	pc := cfg.Prof
	if pc.Seed == 0 {
		pc.Seed = cfg.Seed
	}
	b := ppg.NewBuilder(graph, cfg.NP, cfg.NP)
	block, err := b.Block()
	if err != nil {
		// Only an np below 1, which RunCompiled refuses first, has no
		// block: the run has no rank to profile, and Finish says why.
		return newPerRank[*prof.Profiler](0, nil, (*prof.Profiler).Profile, func([]*prof.RankProfile) (any, error) {
			return nil, fmt.Errorf("assemble PPG: %w", err)
		})
	}
	profilers := prof.NewProfilers(pc, graph, cfg.NP, block)
	return newPerRank(cfg.NP, func(rank int) *prof.Profiler { return &profilers[rank] }, (*prof.Profiler).Profile,
		func(profiles []*prof.RankProfile) (any, error) {
			for _, rp := range profiles {
				if err := b.Add(rp); err != nil {
					return nil, fmt.Errorf("assemble PPG: %w", err)
				}
			}
			pg, err := b.Finish()
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
