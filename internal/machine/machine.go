// Package machine models the processor cores and performance-monitoring
// unit (PMU) that ScalAna reads through PAPI on real hardware. The paper's
// detection logic consumes per-vertex vectors of hardware counters
// (TOT_INS, TOT_CYC, TOT_LST_INS, cache misses); this model produces the
// same vectors from a synthetic IPC + cache + memory cost model, including
// per-rank heterogeneous memory speed (the Nekbone case study's root cause).
package machine

import (
	"fmt"
	"math"
)

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

// The simulated core: one Xeon E5-2692v2 core, Tianhe-2's node CPU. The
// only thing that differs between cores is memory speed (NewCore).
const (
	clockHz       float64 = 2.2e9 // core frequency
	ipc           float64 = 2.0   // sustained non-memory instructions per cycle
	flopsPerCycle float64 = 4.0   // peak FP throughput per cycle
	l1Bytes       float64 = 32 << 10
	l2Bytes       float64 = 256 << 10
	l1LatCycles   float64 = 4
	l2LatCycles   float64 = 12
	memLatCycles  float64 = 180
	// insOverhead is the fraction of extra control instructions charged on
	// top of flops+loads+stores.
	insOverhead float64 = 0.15
)

// Core is the cost model of the core hosting one rank. It holds no
// counters: an operation reports the PMU deltas it caused, and the rank
// (mpisim.Proc) accumulates them between the timer samples that read them.
type Core struct {
	memFactor float64
}

// NewCore creates the core hosting the given rank. memSpeed returns the
// relative memory speed of the core hosting a rank (1.0 = nominal; >1
// means slower memory); nil means uniform. This reproduces the
// heterogeneous-core effect behind the Nekbone scaling loss (paper
// §VI-D3).
func NewCore(memSpeed func(rank int) float64, rank int) Core {
	mf := 1.0
	if memSpeed != nil {
		mf = memSpeed(rank)
	}
	if mf <= 0 {
		mf = 1.0
	}
	return Core{memFactor: mf}
}

// Compute models executing a kernel performing the given floating point
// operations, loads, stores, over a working set of ws bytes. It stores the
// PMU counter deltas in *d and returns the elapsed virtual time in seconds.
//
// The cost model overlaps computation and memory: cycles are the maximum of
// the FP pipeline time, the instruction issue time, and the memory time
// derived from a two-level cache hit model over the working set.
func (c *Core) Compute(flops, loads, stores, ws float64, d *Vec) float64 {
	if !(isAmount(flops) && isAmount(loads) && isAmount(stores) && isAmount(ws)) {
		panic(fmt.Sprintf("machine: compute(%g, %g, %g, %g): every operand must be finite and non-negative", flops, loads, stores, ws))
	}
	mem := loads + stores
	ins := (flops + mem) * (1 + insOverhead)

	// Two-level cache model: the fraction of the working set that fits in
	// each level hits there; the remainder goes to memory.
	hitL1, hitL2 := 1.0, 0.0
	if ws > l1Bytes && ws > 0 {
		hitL1 = l1Bytes / ws
		rem := 1 - hitL1
		hitL2 = rem
		if ws > l2Bytes {
			hitL2 = rem * (l2Bytes / ws)
		}
	}
	missMem := 1 - hitL1 - hitL2
	if missMem < 0 {
		missMem = 0
	}
	perAccess := hitL1*l1LatCycles + hitL2*l2LatCycles + missMem*memLatCycles*c.memFactor

	cyclesFP := flops / flopsPerCycle
	cyclesIssue := ins / ipc
	cyclesMem := mem * perAccess / 4 // pipelined memory accesses (MLP of 4)
	cycles := cyclesFP
	if cyclesIssue > cycles {
		cycles = cyclesIssue
	}
	if cyclesMem > cycles {
		cycles = cyclesMem
	}

	*d = Vec{TotIns: ins, TotCyc: cycles, TotLstIns: mem, L2Miss: missMem * mem, FpOps: flops}
	return cycles / clockHz
}

// isAmount reports whether x is finite and non-negative.
func isAmount(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Overhead prices light bookkeeping work (interpreter glue, MPI call
// entry): n abstract instructions at the issue rate take the returned
// cycles (the TOT_CYC delta; TOT_INS moves by n and no other counter
// moves) and seconds. The price is the same on every core — memory speed,
// the one thing that differs between them, does not enter it — so a
// caller that charges the same n per statement computes it once.
func Overhead(n float64) (cycles, dt float64) {
	cycles = n / ipc
	return cycles, cycles / clockHz
}
