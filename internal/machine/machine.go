// Package machine models the processor cores and performance-monitoring
// unit (PMU) that ScalAna reads through PAPI on real hardware. The paper's
// detection logic consumes per-vertex vectors of hardware counters
// (TOT_INS, TOT_CYC, TOT_LST_INS, cache misses); this model produces the
// same vectors from a synthetic IPC + cache + memory cost model, including
// per-rank heterogeneous memory speed (the Nekbone case study's root cause).
package machine

import "fmt"

// Counter indexes one PMU counter in a Vec.
type Counter int

// PMU counters exposed to the tools (names follow PAPI presets used in the
// paper's case studies).
const (
	TotIns    Counter = iota // TOT_INS: total instructions
	TotCyc                   // TOT_CYC: total cycles
	TotLstIns                // TOT_LST_INS: load/store instructions
	L2Miss                   // L2_TCM: cache misses reaching memory
	FpOps                    // FP_OPS: floating point operations
	NumCounters
)

var counterNames = [NumCounters]string{"TOT_INS", "TOT_CYC", "TOT_LST_INS", "L2_MISS", "FP_OPS"}

func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// Vec is one PMU counter vector.
type Vec [NumCounters]float64

// Add accumulates other into v.
func (v *Vec) Add(other Vec) {
	for i := range v {
		v[i] += other[i]
	}
}

// Scale returns v scaled by f.
func (v Vec) Scale(f float64) Vec {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Config describes the simulated core microarchitecture.
type Config struct {
	ClockHz       float64 // core frequency
	IPC           float64 // sustained non-memory instructions per cycle
	FlopsPerCycle float64 // peak FP throughput per cycle
	L1Bytes       float64
	L2Bytes       float64
	L1LatCycles   float64
	L2LatCycles   float64
	MemLatCycles  float64
	// InsOverhead is the fraction of extra control instructions charged on
	// top of flops+loads+stores.
	InsOverhead float64
	// MemSpeed returns the relative memory speed of the core hosting the
	// given rank (1.0 = nominal; >1 means slower memory). Nil means uniform.
	// This reproduces the heterogeneous-core effect behind the Nekbone
	// scaling loss (paper §VI-D3).
	MemSpeed func(rank int) float64
}

// DefaultConfig resembles one Xeon E5-2692v2 core (Tianhe-2's node CPU).
func DefaultConfig() Config {
	return Config{
		ClockHz:       2.2e9,
		IPC:           2.0,
		FlopsPerCycle: 4.0,
		L1Bytes:       32 << 10,
		L2Bytes:       256 << 10,
		L1LatCycles:   4,
		L2LatCycles:   12,
		MemLatCycles:  180,
		InsOverhead:   0.15,
	}
}

// Core is the cost model of the core hosting one rank. It holds no
// counters: an operation reports the PMU deltas it caused, and the rank
// (mpisim.Proc) accumulates them between the timer samples that read them.
type Core struct {
	cfg       Config
	rank      int
	memFactor float64
}

// NewCore creates the core hosting the given rank.
func NewCore(cfg Config, rank int) *Core {
	mf := 1.0
	if cfg.MemSpeed != nil {
		mf = cfg.MemSpeed(rank)
	}
	if mf <= 0 {
		mf = 1.0
	}
	return &Core{cfg: cfg, rank: rank, memFactor: mf}
}

// MemFactor returns the relative memory slowdown of this core.
func (c *Core) MemFactor() float64 { return c.memFactor }

// Compute models executing a kernel performing the given floating point
// operations, loads, stores, over a working set of ws bytes. It stores the
// PMU counter deltas in *d and returns the elapsed virtual time in seconds.
//
// The cost model overlaps computation and memory: cycles are the maximum of
// the FP pipeline time, the instruction issue time, and the memory time
// derived from a two-level cache hit model over the working set.
func (c *Core) Compute(flops, loads, stores, ws float64, d *Vec) float64 {
	if flops < 0 || loads < 0 || stores < 0 {
		panic(fmt.Sprintf("machine: negative compute operands (%g,%g,%g)", flops, loads, stores))
	}
	mem := loads + stores
	ins := (flops + mem) * (1 + c.cfg.InsOverhead)

	// Two-level cache model: the fraction of the working set that fits in
	// each level hits there; the remainder goes to memory.
	hitL1, hitL2 := 1.0, 0.0
	if ws > c.cfg.L1Bytes && ws > 0 {
		hitL1 = c.cfg.L1Bytes / ws
		rem := 1 - hitL1
		hitL2 = rem
		if ws > c.cfg.L2Bytes {
			hitL2 = rem * (c.cfg.L2Bytes / ws)
		}
	}
	missMem := 1 - hitL1 - hitL2
	if missMem < 0 {
		missMem = 0
	}
	perAccess := hitL1*c.cfg.L1LatCycles + hitL2*c.cfg.L2LatCycles + missMem*c.cfg.MemLatCycles*c.memFactor

	cyclesFP := flops / c.cfg.FlopsPerCycle
	cyclesIssue := ins / c.cfg.IPC
	cyclesMem := mem * perAccess / 4 // pipelined memory accesses (MLP of 4)
	cycles := cyclesFP
	if cyclesIssue > cycles {
		cycles = cyclesIssue
	}
	if cyclesMem > cycles {
		cycles = cyclesMem
	}

	*d = Vec{TotIns: ins, TotCyc: cycles, TotLstIns: mem, L2Miss: missMem * mem, FpOps: flops}
	return cycles / c.cfg.ClockHz
}

// Overhead prices light bookkeeping work (interpreter glue, MPI call
// entry): n abstract instructions at the issue rate take the returned
// cycles (the TOT_CYC delta; TOT_INS moves by n and no other counter
// moves) and seconds. The price is the same on every core of the
// configuration — memory speed, the one thing that differs between them,
// does not enter it — so a caller that charges the same n per statement
// computes it once.
func (cfg *Config) Overhead(n float64) (cycles, dt float64) {
	cycles = n / cfg.IPC
	return cycles, cycles / cfg.ClockHz
}
