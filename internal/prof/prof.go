// Package prof implements ScalAna's runtime module (paper §III-B):
// sampling-based performance profiling plus PMPI-style communication
// dependence collection with random sampling-based instrumentation and
// graph-guided compression. Its output, one RankProfile per process, is
// what scalana-detect assembles into a Program Performance Graph.
package prof

import (
	"fmt"
	"math/rand"
	"slices"

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
	// Comm holds the compressed communication dependence records in the
	// canonical wire order (commKeyLess), strictly ascending: no two
	// records share a CommKey. Profiler.Profile and the decoder establish
	// the order; a hand-built profile calls SortComm. The encoder and
	// ppg.Builder verify it with CheckComm instead of sorting again.
	Comm []CommRecord
	// Indirect holds runtime indirect-call resolutions (nil until the
	// first one: most programs make no indirect call).
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
		Rank:   rank,
		NP:     np,
		Graph:  g,
		Vertex: make([]PerfData, g.NumVIDs()),
	}
}

// commKeyLess is the canonical order of communication records: the order
// they have on the wire and the order ppg.Build sums them in. It compares
// vertices by their interned key strings, not by VID, so bytes written by
// this build equal the pre-VID build's, and it is total over distinct
// CommKeys — every field participates. VIDs must be in range of keys,
// psg.VIDNone excepted on the dependence side (CheckComm verifies that
// before anything compares).
func commKeyLess(keys []string, a, b *CommKey) bool {
	if a.VID != b.VID {
		if ak, bk := keys[a.VID], keys[b.VID]; ak != bk {
			return ak < bk
		}
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.DepRank != b.DepRank {
		return a.DepRank < b.DepRank
	}
	if a.DepVID != b.DepVID {
		var ad, bd string
		if a.DepVID != psg.VIDNone {
			ad = keys[a.DepVID]
		}
		if b.DepVID != psg.VIDNone {
			bd = keys[b.DepVID]
		}
		if ad != bd {
			return ad < bd
		}
	}
	if a.Tag != b.Tag {
		return a.Tag < b.Tag
	}
	if a.Collective != b.Collective {
		return !a.Collective
	}
	return a.Bytes < b.Bytes
}

// sortComm puts records into canonical order. The sort is stable, so
// records that share a CommKey keep their relative order.
func sortComm(keys []string, comm []CommRecord) {
	slices.SortStableFunc(comm, func(a, b CommRecord) int {
		switch {
		case commKeyLess(keys, &a.CommKey, &b.CommKey):
			return -1
		case commKeyLess(keys, &b.CommKey, &a.CommKey):
			return 1
		}
		return 0
	})
}

// SortComm puts a hand-built profile's records into the canonical order
// CheckComm demands. Records naming a vertex outside the graph are left
// for CheckComm to report.
func (rp *RankProfile) SortComm() {
	keys := rp.Graph.Keys()
	if rp.commInRange(len(keys)) == nil {
		sortComm(keys, rp.Comm)
	}
}

// commInRange reports the first record that names a vertex outside a
// symbol table of n entries (psg.VIDNone is legal as DepVID only).
func (rp *RankProfile) commInRange(n int) error {
	for i := range rp.Comm {
		rec := &rp.Comm[i]
		bad := rec.VID
		if int(bad) < n && rec.DepVID != psg.VIDNone {
			bad = rec.DepVID
		}
		if int(bad) >= n {
			return fmt.Errorf("prof: rank %d profile references VID %d outside the symbol table (%d entries)", rp.Rank, bad, n)
		}
	}
	return nil
}

// CheckComm verifies, in one linear pass, what every consumer of Comm
// relies on: each record names vertices of the symbol table keys, and the
// records are in strictly ascending canonical order. Aggregating or
// encoding them in any other order would change float sums and wire
// bytes, so the encoder and ppg.Build refuse instead of sorting again.
func (rp *RankProfile) CheckComm(keys []string) error {
	if err := rp.commInRange(len(keys)); err != nil {
		return err
	}
	for i := 1; i < len(rp.Comm); i++ {
		if !commKeyLess(keys, &rp.Comm[i-1].CommKey, &rp.Comm[i].CommKey) {
			return fmt.Errorf("prof: rank %d profile: communication records %d and %d are out of canonical order or share a key (a hand-built profile calls SortComm)", rp.Rank, i-1, i)
		}
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

// Profiler is the per-rank tool hook: an mpisim.TimerSampler, driven by
// the rank's sampling timer and its MPI events.
type Profiler struct {
	cfg     Config
	profile *RankProfile
	rng     *rand.Rand

	// The records an MPI vertex owns form a chain through profile.Comm:
	// commHead[vid] is one more than the index of the newest (0 = none)
	// and commNext[i] is the same for the record before record i. A
	// vertex has one to a few distinct parameter sets, so finding an
	// event's record is a short field-by-field compare.
	commHead []int32
	commNext []int32
	// commSorted says profile.Comm is in canonical order; appending a
	// record clears it and Profile restores it.
	commSorted bool
	// wideTag says an event carried a tag outside [0, 256); see record.
	wideTag bool

	// pending reproduces the request converter of paper Fig. 5: request
	// handle -> source captured at MPI_Irecv (the tag of Fig. 5 rides on
	// the wait event itself), consumed at MPI_Wait and dropped wholesale
	// at MPI_Waitall, which completes every request the rank has. It
	// never holds more than the rank's outstanding receive requests.
	pending []pendingRecv
}

type pendingRecv struct {
	id  int
	src int
}

// Per-rank capacities carved from NewProfilers' slabs; a rank that
// needs more grows its own slice on the heap.
const (
	commCap    = 8
	pendingCap = 8
)

// NewProfilers returns the hooks of all np ranks of one run, rank r at
// index r. Every rank's dense vertex storage, record arena, record index
// and request converter are carved from slabs allocated once here — a
// handful of allocations a run instead of a handful a rank. Use the
// elements in place (&profilers[r]); a copy would fork a rank's state.
func NewProfilers(cfg Config, graph *psg.Graph, np int) []Profiler {
	return newProfilers(cfg, graph, 0, np, np)
}

// New creates a stand-alone profiler hook for one rank.
func New(cfg Config, graph *psg.Graph, rank, np int) *Profiler {
	return &newProfilers(cfg, graph, rank, 1, np)[0]
}

// newProfilers builds the profilers of ranks first..first+n-1 of an
// np-rank job over shared slabs.
func newProfilers(cfg Config, graph *psg.Graph, first, n, np int) []Profiler {
	if cfg.SampleHz <= 0 {
		cfg.SampleHz = DefaultConfig().SampleHz
	}
	nv := graph.NumVIDs()
	profilers := make([]Profiler, n)
	profiles := make([]RankProfile, n)
	vertex := make([]PerfData, n*nv)
	heads := make([]int32, n*nv)
	comm := make([]CommRecord, n*commCap)
	next := make([]int32, n*commCap)
	pending := make([]pendingRecv, n*pendingCap)
	for i := range profilers {
		profiles[i] = RankProfile{
			Rank:   first + i,
			NP:     np,
			Graph:  graph,
			Vertex: vertex[i*nv : (i+1)*nv : (i+1)*nv],
			Comm:   comm[i*commCap : i*commCap : (i+1)*commCap],
		}
		profilers[i] = Profiler{
			cfg:        cfg,
			profile:    &profiles[i],
			commHead:   heads[i*nv : (i+1)*nv : (i+1)*nv],
			commNext:   next[i*commCap : i*commCap : (i+1)*commCap],
			commSorted: true,
			pending:    pending[i*pendingCap : i*pendingCap : (i+1)*pendingCap],
		}
	}
	return profilers
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

// Profile returns the collected rank profile, its communication records
// in canonical order. The profiler stays usable: further events keep
// accumulating into the same profile.
func (pr *Profiler) Profile() *RankProfile {
	if !pr.commSorted {
		comm := pr.profile.Comm
		sortComm(pr.profile.Graph.Keys(), comm)
		// The sort moved records, so re-thread the per-vertex chains.
		for i := range comm {
			pr.commHead[comm[i].VID] = 0
		}
		for i := range comm {
			pr.commNext[i] = pr.commHead[comm[i].VID]
			pr.commHead[comm[i].VID] = int32(i + 1)
		}
		pr.commSorted = true
	}
	return pr.profile
}

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

// SamplePeriod asks the rank for a timer interrupt every 1/SampleHz
// virtual seconds.
func (pr *Profiler) SamplePeriod() float64 { return 1 / pr.cfg.SampleHz }

// Sample is the timer interrupt: it attributes the counters accrued since
// the previous interrupt and one sample period of time a crossing to the
// vertex the rank is in — the same attribution PAPI overflow sampling
// performs via the call stack.
//
//scalana:hot
func (pr *Profiler) Sample(p *mpisim.Proc, crossings int64, period float64, pmu *machine.Vec) float64 {
	pd := pr.perf(ctxVID(p.Ctx))
	pd.Samples += crossings
	pd.Time += float64(crossings) * period
	pd.PMU.Add(*pmu)
	pr.profile.SamplesTaken += crossings
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
	depRank := ev.DepRank
	switch ev.Kind {
	case mpisim.EvIrecv:
		pr.pending = append(pr.pending, pendingRecv{id: ev.ReqID, src: ev.Peer})
		return 0 // dependence is recorded at completion time
	case mpisim.EvIsend:
		return 0
	case mpisim.EvWait:
		for i := range pr.pending {
			if st := pr.pending[i]; st.id == ev.ReqID {
				last := len(pr.pending) - 1
				pr.pending[i] = pr.pending[last]
				pr.pending = pr.pending[:last]
				// The completed receive depended on the source it was
				// posted for, or — when that was uncertain — on the one
				// the completed status names.
				if depRank = st.src; depRank == mpisim.AnySource {
					depRank = ev.Peer
				}
				break
			}
		}
	case mpisim.EvWaitall:
		pr.pending = pr.pending[:0]
	}

	// Random sampling-based instrumentation (paper §III-B2): record the
	// parameters of this operation with probability CommSampleProb.
	if pr.cfg.CommSampleProb < 1 && pr.sampleRand() >= pr.cfg.CommSampleProb {
		return 0
	}
	pr.profile.EventsSampled++

	vid, depVID, tag := ctxVID(ev.Ctx), psg.VIDNone, ev.Tag
	if ev.DepCtx != nil {
		depVID = ctxVID(ev.DepCtx)
	}
	if !pr.cfg.Compress {
		// Without graph-guided compression every record is unique.
		tag = int(pr.profile.EventsSampled)<<8 | tag
	}
	rec := pr.record(vid, depVID, depRank, tag, ev)
	rec.Count++
	rec.TotalWait += ev.Wait
	if ev.Wait > rec.MaxWait {
		rec.MaxWait = ev.Wait
	}
	return pr.cfg.CommRecordCost
}

// record finds the record an event accumulates into, appending one when
// the vertex has not issued these parameters before.
//
//scalana:hot
func (pr *Profiler) record(vid, depVID psg.VID, depRank, tag int, ev *mpisim.Event) *CommRecord {
	comm := pr.profile.Comm
	// Uncompressed, an event's number sits in its key above a tag in
	// [0, 256), so while every tag has been that small the key is new by
	// construction and the chain — one record an event — is not walked.
	pr.wideTag = pr.wideTag || uint(ev.Tag) >= 256
	if pr.cfg.Compress || pr.wideTag {
		for i := pr.commHead[vid]; i != 0; i = pr.commNext[i-1] {
			rec := &comm[i-1]
			if rec.DepRank == depRank && rec.Tag == tag && rec.DepVID == depVID &&
				rec.Bytes == ev.Bytes && rec.Collective == ev.Collective && rec.Op == ev.Op {
				return rec
			}
		}
	}
	pr.profile.Comm = append(comm, CommRecord{CommKey: CommKey{
		VID: vid, Op: ev.Op, DepRank: depRank, DepVID: depVID,
		Tag: tag, Bytes: ev.Bytes, Collective: ev.Collective,
	}})
	pr.commNext = append(pr.commNext, pr.commHead[vid])
	pr.commHead[vid] = int32(len(pr.profile.Comm))
	pr.commSorted = false
	return &pr.profile.Comm[len(comm)]
}

// indirectKey names one (call site, target) resolution in
// RankProfile.Indirect.
func indirectKey(instancePath string, site minilang.NodeID, target string) string {
	return fmt.Sprintf("%s:%d#%s", instancePath, site, target)
}

// setIndirect files rec under key, allocating the map on first use.
func (rp *RankProfile) setIndirect(key string, rec *IndirectRecord) {
	if rp.Indirect == nil {
		rp.Indirect = map[string]*IndirectRecord{}
	}
	rp.Indirect[key] = rec
}

// ObserveIndirect records a runtime indirect-call resolution; wire it to
// vm.Runner.OnIndirect.
func (pr *Profiler) ObserveIndirect(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
	key := indirectKey(inst.Path, site, target)
	rec := pr.profile.Indirect[key]
	if rec == nil {
		rec = &IndirectRecord{InstancePath: inst.Path, Site: site, Target: target}
		pr.profile.setIndirect(key, rec)
	}
	rec.Count++
}

var _ mpisim.TimerSampler = (*Profiler)(nil)
