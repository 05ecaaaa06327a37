package prof

import (
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// CheckAgainstOracle lets decode_apps_test.go (package prof_test, which
// can import the root package's bundled apps) hold simulated profile sets
// to the differential property.
var CheckAgainstOracle = checkAgainstOracle

// OracleProfiler is what profiler_apps_test.go needs of oracleProfiler to
// attach it to a simulated world as each rank's hook.
type OracleProfiler interface {
	mpisim.Hook
	Profile() *RankProfile
}

// NewOracleProfiler builds the map-based reference profiler for one rank.
func NewOracleProfiler(cfg Config, graph *psg.Graph, rank, np int) OracleProfiler {
	return newOracleProfiler(cfg, graph, rank, np)
}
