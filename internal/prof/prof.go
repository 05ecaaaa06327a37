// Package prof implements ScalAna's runtime module (paper §III-B):
// sampling-based performance profiling plus PMPI-style communication
// dependence collection with random sampling-based instrumentation and
// graph-guided compression. Its output, one RankProfile per process, is
// what scalana-detect assembles into a Program Performance Graph.
package prof

import (
	"fmt"
	"math/rand"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// Config controls the profiler.
type Config struct {
	// SampleHz is the timer sampling frequency (paper evaluation: 200 Hz,
	// matched to HPCToolkit for fairness).
	SampleHz float64
	// SampleCost is the virtual CPU cost of one sampling interrupt
	// (signal delivery + unwind + counter read).
	SampleCost float64
	// CommSampleProb is the probability that one communication operation's
	// parameters are recorded (random sampling-based instrumentation,
	// paper §III-B2). 1.0 records every operation.
	CommSampleProb float64
	// CommRecordCost is the virtual CPU cost of recording one
	// communication operation.
	CommRecordCost float64
	// Compress enables graph-guided communication compression: repeated
	// operations with identical parameters collapse into one record.
	// Disable only for the ablation benchmark.
	Compress bool
	// Seed seeds the per-rank instrumentation-sampling RNG.
	Seed int64
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		SampleHz:       200,
		SampleCost:     1.8e-6,
		CommSampleProb: 1.0,
		CommRecordCost: 0.25e-6,
		Compress:       true,
	}
}

// PerfData is the performance vector attached to one PSG vertex on one
// rank (paper Fig. 6 shows Time/TOT_INS/TOT_LST on a vertex).
type PerfData struct {
	// Samples counts timer interrupts attributed to the vertex.
	Samples int64
	// Time is the sampled execution time: Samples / SampleHz.
	Time float64
	// PMU holds the hardware counters accumulated while the vertex ran.
	PMU machine.Vec
}

// CommKey identifies one communication record after compression: the
// PSG vertex plus the operation parameters. Repeated communications with
// the same key collapse into a single record (paper §III-B2). Vertices
// are carried as interned VIDs; the JSON wire format converts them back
// to stable string keys (see json.go), so saved profiles stay portable.
type CommKey struct {
	// VID is the interned ID of the MPI vertex that issued the operation.
	VID psg.VID
	// Op is the MPI operation name (mpi_send, mpi_allreduce, ...).
	Op string
	// DepRank is the peer this operation depended on (-1 when none).
	DepRank int
	// DepVID is the interned ID of the peer's responsible vertex
	// (psg.VIDNone when the dependence has no responsible vertex).
	DepVID psg.VID
	// Tag is the message tag (p2p operations).
	Tag int
	// Bytes is the per-operation message size.
	Bytes float64
	// Collective marks collective operations.
	Collective bool
}

// CommRecord is one (possibly aggregated) communication dependence record.
type CommRecord struct {
	CommKey
	// Count is how many operations collapsed into this record.
	Count int64
	// TotalWait is the summed waiting time across those operations.
	TotalWait float64
	// MaxWait is the largest single waiting time observed.
	MaxWait float64
}

// IndirectRecord is one runtime-resolved indirect call (paper §III-B3).
type IndirectRecord struct {
	// InstancePath is the PSG instance path of the calling function.
	InstancePath string
	// Site is the AST node of the indirect call site.
	Site minilang.NodeID
	// Target is the function name the call resolved to.
	Target string
	// Count is how many times this (site, target) resolution fired.
	Count int64
}

// RankProfile is the profiler output for one rank.
type RankProfile struct {
	// Rank is the process this profile was collected on.
	Rank int
	// NP is the job size the profile belongs to.
	NP int
	// Graph is the PSG whose symbol table Vertex is indexed by. It is
	// required to serialize the profile (VIDs convert back to stable
	// string keys on the wire) and is never serialized itself.
	Graph *psg.Graph
	// Vertex is dense per-vertex performance data indexed by psg.VID; a
	// zero-valued entry means the vertex was never sampled on this rank.
	Vertex []PerfData
	// Comm holds the compressed communication dependence records.
	Comm map[CommKey]*CommRecord
	// Indirect holds runtime indirect-call resolutions.
	Indirect map[string]*IndirectRecord
	// Raw counts for storage accounting.
	EventsSeen    int64
	EventsSampled int64
	SamplesTaken  int64
}

// NewRankProfile returns an empty profile whose dense vertex storage is
// pre-sized to g's symbol table.
func NewRankProfile(g *psg.Graph, rank, np int) *RankProfile {
	return &RankProfile{
		Rank:     rank,
		NP:       np,
		Graph:    g,
		Vertex:   make([]PerfData, g.NumVIDs()),
		Comm:     map[CommKey]*CommRecord{},
		Indirect: map[string]*IndirectRecord{},
	}
}

// CheckRanks reports whether profiles is one complete job: every rank of
// the np its first profile names, each exactly once, all agreeing on np.
// ppg.Build refuses anything else, so the upload path asks the same
// question before a set is stored (the store is append-only: a set that
// can never be assembled would fail every later query of its scale).
func CheckRanks(profiles []*RankProfile) error {
	if len(profiles) == 0 {
		return fmt.Errorf("ppg: no profiles")
	}
	np := profiles[0].NP
	if len(profiles) != np {
		return fmt.Errorf("ppg: got %d profiles for np=%d", len(profiles), np)
	}
	seen := make([]bool, np)
	for _, rp := range profiles {
		if rp.NP != np {
			return fmt.Errorf("ppg: profile for rank %d has np=%d, want %d", rp.Rank, rp.NP, np)
		}
		if rp.Rank < 0 || rp.Rank >= np {
			return fmt.Errorf("ppg: profile rank %d out of range", rp.Rank)
		}
		if seen[rp.Rank] {
			return fmt.Errorf("ppg: duplicate profile for rank %d", rp.Rank)
		}
		seen[rp.Rank] = true
	}
	return nil
}

// Active reports whether a dense vertex slot carries attributed data (the
// equivalent of key presence in the old map representation: a zero-valued
// slot means the vertex was never sampled).
func (pd *PerfData) Active() bool {
	return pd.Samples != 0 || pd.Time != 0 || pd.PMU != (machine.Vec{})
}

// PerfAt returns the performance data attributed to a vertex on this
// rank, or nil when the vertex was never sampled or the VID is outside
// the profile's dense storage.
func (rp *RankProfile) PerfAt(vid psg.VID) *PerfData {
	if int(vid) >= len(rp.Vertex) {
		return nil
	}
	if pd := &rp.Vertex[vid]; pd.Active() {
		return pd
	}
	return nil
}

// NumVertexEntries counts the vertices with attributed data — the number
// of per-vertex records a binary profile writes, and the exact count the
// old map representation stored.
func (rp *RankProfile) NumVertexEntries() int {
	n := 0
	for i := range rp.Vertex {
		if rp.Vertex[i].Active() {
			n++
		}
	}
	return n
}

// StorageBytes returns the bytes this rank's profile occupies on disk,
// for the storage-cost experiments (Table I, Fig. 11, Fig. 13). Sizes per
// record reflect the binary layout scalana-prof writes: a vertex perf
// entry is key hash + samples + 5 counters; a comm record is parameters +
// counters; an indirect record is two hashes and a count.
func (rp *RankProfile) StorageBytes() int64 {
	const (
		vertexEntry   = 8 + 8 + 8*int64(machine.NumCounters)
		commEntry     = 8 + 4 + 4 + 8 + 4 + 8 + 8 + 8
		indirectEntry = 8 + 8 + 8
		header        = 64
	)
	return header +
		int64(rp.NumVertexEntries())*vertexEntry +
		int64(len(rp.Comm))*commEntry +
		int64(len(rp.Indirect))*indirectEntry
}

// Profiler is the per-rank tool hook. It implements mpisim.Hook.
type Profiler struct {
	cfg     Config
	profile *RankProfile

	period float64
	// lastBucket caches int64(to/period) from the previous Advance call.
	// Advances on a rank are contiguous (each from equals the prior to,
	// starting at virtual time zero), so the cached value equals
	// int64(from/period) exactly and saves one division per advance.
	lastBucket int64
	pendingPMU machine.Vec
	rng        *rand.Rand

	// requestConverter reproduces paper Fig. 5: request handle ->
	// (source, tag) captured at MPI_Irecv, consumed at MPI_Wait.
	requestConverter map[int]srcTag
}

type srcTag struct {
	src int
	tag int
}

// New creates the profiler hook for one rank.
func New(cfg Config, graph *psg.Graph, rank, np int) *Profiler {
	if cfg.SampleHz <= 0 {
		cfg.SampleHz = DefaultConfig().SampleHz
	}
	return &Profiler{
		cfg:              cfg,
		profile:          NewRankProfile(graph, rank, np),
		period:           1 / cfg.SampleHz,
		requestConverter: map[int]srcTag{},
	}
}

// sampleRand lazily seeds the instrumentation-sampling RNG on first draw.
// The stream is identical to eager seeding in New, but the default
// CommSampleProb of 1 never draws, and math/rand source initialization is
// costly enough to matter across 1024 ranks.
func (pr *Profiler) sampleRand() float64 {
	if pr.rng == nil {
		pr.rng = rand.New(rand.NewSource(pr.cfg.Seed*31 + int64(pr.profile.Rank)*2654435761 + 17))
	}
	return pr.rng.Float64()
}

// Profile returns the collected rank profile.
func (pr *Profiler) Profile() *RankProfile { return pr.profile }

// perf returns the dense slot for a vertex. New sizes the storage to the
// graph's symbol table and a compiled graph never grows, so every VID a
// run can hand the profiler is in range.
func (pr *Profiler) perf(vid psg.VID) *PerfData { return &pr.profile.Vertex[vid] }

func ctxVID(ctx any) psg.VID {
	if v, ok := ctx.(*psg.Vertex); ok && v != nil {
		return v.VID
	}
	return psg.VIDRoot
}

// Advance implements the timer sampler. PMU deltas accumulate in a pending
// vector; each period crossing "fires an interrupt" that attributes the
// pending counters and one sample period of time to the current vertex —
// the same attribution PAPI overflow sampling performs via the call stack.
//
//scalana:hot
func (pr *Profiler) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx any, pmu machine.Vec) float64 {
	pr.pendingPMU.Add(pmu)
	bucket := int64(to / pr.period)
	crossings := bucket - pr.lastBucket
	pr.lastBucket = bucket
	if crossings <= 0 {
		return 0
	}
	pd := pr.perf(ctxVID(ctx))
	pd.Samples += crossings
	pd.Time += float64(crossings) * pr.period
	pd.PMU.Add(pr.pendingPMU)
	pr.pendingPMU = machine.Vec{}
	pr.profile.SamplesTaken += crossings
	if kind == mpisim.AdvPerturb {
		return 0
	}
	return float64(crossings) * pr.cfg.SampleCost
}

// MPIEvent implements the PMPI interposition layer.
//
//scalana:hot
func (pr *Profiler) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	pr.profile.EventsSeen++

	// Fig. 5: capture (source, tag) at Irecv; resolve at Wait. When the
	// posted source was a wildcard, the completed event's Peer plays the
	// role of status.MPI_SOURCE.
	switch ev.Kind {
	case mpisim.EvIrecv:
		pr.requestConverter[ev.ReqID] = srcTag{src: ev.Peer, tag: ev.Tag}
		return 0 // dependence is recorded at completion time
	case mpisim.EvIsend:
		return 0
	case mpisim.EvWait:
		if st, ok := pr.requestConverter[ev.ReqID]; ok {
			delete(pr.requestConverter, ev.ReqID)
			if st.src == mpisim.AnySource {
				// Source was uncertain; use the completed status.
				st.src = ev.Peer
			}
		}
	}

	// Random sampling-based instrumentation (paper §III-B2): record the
	// parameters of this operation with probability CommSampleProb.
	if pr.cfg.CommSampleProb < 1 && pr.sampleRand() >= pr.cfg.CommSampleProb {
		return 0
	}
	pr.profile.EventsSampled++

	key := CommKey{
		VID:        ctxVID(ev.Ctx),
		Op:         ev.Op,
		DepRank:    ev.DepRank,
		DepVID:     ctxVID(ev.DepCtx),
		Tag:        ev.Tag,
		Bytes:      ev.Bytes,
		Collective: ev.Collective,
	}
	if ev.DepCtx == nil {
		key.DepVID = psg.VIDNone
	}
	if !pr.cfg.Compress {
		// Without graph-guided compression every record is unique.
		key.Tag = int(pr.profile.EventsSampled)<<8 | key.Tag
	}
	rec := pr.profile.Comm[key]
	if rec == nil {
		rec = &CommRecord{CommKey: key}
		pr.profile.Comm[key] = rec
	}
	rec.Count++
	rec.TotalWait += ev.Wait
	if ev.Wait > rec.MaxWait {
		rec.MaxWait = ev.Wait
	}
	return pr.cfg.CommRecordCost
}

// ObserveIndirect records a runtime indirect-call resolution; wire it to
// vm.Runner.OnIndirect.
func (pr *Profiler) ObserveIndirect(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
	key := fmt.Sprintf("%s:%d#%s", inst.Path, site, target)
	rec := pr.profile.Indirect[key]
	if rec == nil {
		rec = &IndirectRecord{InstancePath: inst.Path, Site: site, Target: target}
		pr.profile.Indirect[key] = rec
	}
	rec.Count++
}

var _ mpisim.Hook = (*Profiler)(nil)
