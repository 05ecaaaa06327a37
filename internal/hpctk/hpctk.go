// Package hpctk implements the profiling-based baseline the paper compares
// against (HPCToolkit): pure call-path sampling. It attributes samples to
// full calling-context paths — but it records no inter-process
// dependence, which is exactly why the paper's
// case studies find it needs "significant human efforts" to get from the
// hot spots it reports to the root cause.
package hpctk

import (
	"strings"

	"scalana/internal/machine"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// The profiler mirrors hpcrun's defaults with tracing enabled.
const (
	// sampleHz is the timer frequency (the paper pins both tools at 200 Hz).
	sampleHz float64 = 200
	// sampleCost is the virtual cost of one interrupt + stack unwind.
	// Unwinding a full call path costs a bit more than ScalAna's
	// graph-pointer lookup.
	sampleCost float64 = 2.2e-6
)

// CtxData is the metric payload of one calling-context-tree node.
type CtxData struct {
	Samples int64
	Time    float64
	PMU     machine.Vec
}

// RankProfile is one rank's calling-context-tree profile.
type RankProfile struct {
	Rank int
	// Ctx maps a calling-context path (joined vertex keys) to metrics.
	Ctx map[string]*CtxData
	// TraceSamples counts hpctraceviewer-style trace records, one per
	// sample: where most of HPCToolkit's storage goes.
	TraceSamples int64
}

// StorageBytes reports the measurement-file size: a per-rank file header
// (load map, metric descriptors — hpcrun files carry several KB of
// metadata each), CCT nodes with a metric vector each, plus the
// per-sample trace line.
func (rp *RankProfile) StorageBytes() int64 {
	const fileHeader = 6 << 10                                // load map + metric table per rank
	const cctNode = 8 + 8 + 8*int64(machine.NumCounters) + 32 // ids, parent link, metrics, frame info
	const traceRec = 12                                       // timestamp + cct id
	var pathBytes int64
	for path := range rp.Ctx {
		pathBytes += int64(len(path)) / 4 // dictionary-compressed frames
	}
	return fileHeader + int64(len(rp.Ctx))*cctNode + pathBytes + rp.TraceSamples*traceRec
}

// Profiler is the per-rank hook, an mpisim.TimerSampler.
type Profiler struct {
	profile *RankProfile
	// paths caches the rendered calling-context string per leaf vertex,
	// indexed by interned psg.VID: the parent walk and string join run
	// once per distinct context instead of once per sample.
	paths []string
}

// New creates the call-path profiler for one rank.
func New(rank int) *Profiler {
	return &Profiler{profile: &RankProfile{Rank: rank, Ctx: map[string]*CtxData{}}}
}

// Profile returns the collected profile.
func (pr *Profiler) Profile() *RankProfile { return pr.profile }

// callPath renders the calling context of ctx by walking vertex parents —
// the moral equivalent of unwinding the stack at an interrupt. The walk
// memoizes per interned VID, so repeated samples in the same context are
// a slice index.
func (pr *Profiler) callPath(ctx any) string {
	v, ok := ctx.(*psg.Vertex)
	if !ok || v == nil {
		return "root"
	}
	if int(v.VID) < len(pr.paths) && pr.paths[v.VID] != "" {
		return pr.paths[v.VID]
	}
	var parts []string
	for _, x := range v.Path() {
		parts = append(parts, x.Key)
	}
	path := strings.Join(parts, ";")
	if int(v.VID) >= len(pr.paths) {
		grown := make([]string, int(v.VID)+1)
		copy(grown, pr.paths)
		pr.paths = grown
	}
	pr.paths[v.VID] = path
	return path
}

// SamplePeriod asks the rank for a timer interrupt every 1/sampleHz
// virtual seconds.
func (pr *Profiler) SamplePeriod() float64 { return 1 / sampleHz }

// Sample is the timer interrupt: it unwinds the calling context the rank
// is in and attributes the samples and the counters accrued since the
// previous interrupt to it.
func (pr *Profiler) Sample(p *mpisim.Proc, crossings int64, period float64, pmu *machine.Vec) float64 {
	path := pr.callPath(p.Ctx)
	cd := pr.profile.Ctx[path]
	if cd == nil {
		cd = &CtxData{}
		pr.profile.Ctx[path] = cd
	}
	cd.Samples += crossings
	cd.Time += float64(crossings) * period
	cd.PMU.Add(*pmu)
	pr.profile.TraceSamples += crossings
	return float64(crossings) * sampleCost
}

// MPIEvent is a no-op: a pure sampling profiler does not interpose on MPI.
func (pr *Profiler) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 { return 0 }

var _ mpisim.TimerSampler = (*Profiler)(nil)
