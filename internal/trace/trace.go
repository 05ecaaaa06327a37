// Package trace implements the tracing-based baseline tool the paper
// compares against (Scalasca): every MPI event and every enter/exit of a
// program region is logged as a timestamped record. Storage is counted in
// actual bytes of the OTF2-like binary layout, and each record charges the
// per-event logging overhead — the two costs that make tracing prohibitive
// at scale (paper Table I: 6.77 GB and 25.3% on NPB-CG at 128 ranks).
package trace

import (
	"scalana/internal/machine"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// Config controls the tracer.
type Config struct {
	// EventCost is the virtual CPU cost of logging one trace record.
	EventCost float64
	// RegionGranularity adds enter/exit records around every attribution
	// context switch, like compiler-instrumented Score-P regions.
	RegionGranularity bool
}

// DefaultConfig matches a Score-P/Scalasca-like setup.
func DefaultConfig() Config {
	return Config{EventCost: 1.6e-6, RegionGranularity: true}
}

// Record is one trace record. Regions are identified by interned
// psg.VID, matching the integer region IDs an OTF2 trace stores.
type Record struct {
	T      float64
	Kind   RecordKind
	Op     string
	Vertex psg.VID
	Peer   int
	Tag    int
	Bytes  float64
	Wait   float64
	Dep    int // rank that satisfied the dependence, -1 if none
}

// RecordKind classifies trace records.
type RecordKind int

// Record kinds.
const (
	RecEnter RecordKind = iota
	RecExit
	RecComm
)

// recordBytes is the on-disk size of one record in the OTF2-like binary
// layout: timestamp + kind + region/op id + peer + tag + size + 2 floats.
const recordBytes = 8 + 1 + 4 + 4 + 4 + 8 + 8 + 8

// RankTrace is one rank's trace buffer.
type RankTrace struct {
	Rank    int
	Records []Record
}

// StorageBytes is the rank's trace size on disk.
func (rt *RankTrace) StorageBytes() int64 {
	return int64(len(rt.Records)) * recordBytes
}

// Tracer is the per-rank hook, an mpisim.AdvanceObserver: region
// transitions can happen at any advance, so it watches them all.
type Tracer struct {
	cfg     Config
	trace   *RankTrace
	lastCtx any
}

// New creates a tracer for one rank.
func New(cfg Config, rank int) *Tracer {
	if cfg.EventCost == 0 {
		cfg = DefaultConfig()
	}
	return &Tracer{cfg: cfg, trace: &RankTrace{Rank: rank}}
}

// Trace returns the collected records.
func (tr *Tracer) Trace() *RankTrace { return tr.trace }

func ctxVID(ctx any) psg.VID {
	if v, ok := ctx.(*psg.Vertex); ok && v != nil {
		return v.VID
	}
	return psg.VIDRoot
}

// Advance logs region enter/exit transitions.
func (tr *Tracer) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx any, pmu machine.Vec) float64 {
	if !tr.cfg.RegionGranularity || kind == mpisim.AdvPerturb {
		return 0
	}
	if ctx == tr.lastCtx {
		return 0
	}
	var owed float64
	if tr.lastCtx != nil {
		tr.trace.Records = append(tr.trace.Records, Record{T: from, Kind: RecExit, Vertex: ctxVID(tr.lastCtx), Peer: -1, Dep: -1})
		owed += tr.cfg.EventCost
	}
	tr.trace.Records = append(tr.trace.Records, Record{T: from, Kind: RecEnter, Vertex: ctxVID(ctx), Peer: -1, Dep: -1})
	owed += tr.cfg.EventCost
	tr.lastCtx = ctx
	return owed
}

// MPIEvent logs one communication record.
func (tr *Tracer) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	tr.trace.Records = append(tr.trace.Records, Record{
		T:      ev.TEnd,
		Kind:   RecComm,
		Op:     ev.Op,
		Vertex: ctxVID(ev.Ctx),
		Peer:   ev.Peer,
		Tag:    ev.Tag,
		Bytes:  ev.Bytes,
		Wait:   ev.Wait,
		Dep:    ev.DepRank,
	})
	return tr.cfg.EventCost
}

var _ mpisim.AdvanceObserver = (*Tracer)(nil)
