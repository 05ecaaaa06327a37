package commmatrix

import (
	"scalana/internal/mpisim"

	scalana "scalana"
)

// init wires the collector into the public tool registry. This is the
// whole integration: no switch arm, no dispatch edit — importing the
// package (even blank) makes `ToolName: "commmatrix"` work everywhere
// Run/RunCompiled/Engine do.
func init() {
	scalana.RegisterTool(tool{})
}

type tool struct{}

func (tool) Name() string { return "commmatrix" }
func (tool) Description() string {
	return "communication-volume collector: per-vertex send/recv bytes and message counts plus the rank-to-rank traffic matrix"
}

func (tool) NewRun(tc scalana.ToolContext) (scalana.ToolRun, error) {
	np := tc.Config.NP
	return &run{
		np:         np,
		collectors: make([]*Collector, np),
		ranks:      make([]*RankComm, np),
	}, nil
}

type run struct {
	np         int
	collectors []*Collector
	ranks      []*RankComm
}

func (r *run) HooksForRank(rank int) []mpisim.Hook {
	c := New(rank, r.np)
	r.collectors[rank] = c
	return []mpisim.Hook{c}
}

func (r *run) FinalizeRank(rank int) int64 {
	r.ranks[rank] = r.collectors[rank].Comm()
	return r.ranks[rank].StorageBytes()
}

// Finish assembles the dense traffic matrix; Measurement.Data returns it
// as a *Matrix.
func (r *run) Finish() (any, error) { return Assemble(r.ranks) }
