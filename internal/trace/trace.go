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

// eventCost is the virtual CPU cost of logging one trace record, as in a
// Score-P/Scalasca-like setup.
const eventCost float64 = 1.6e-6

// Record is one trace record. Regions are identified by interned
// psg.VID, matching the integer region IDs an OTF2 trace stores.
type Record struct {
	T      float64
	Kind   RecordKind
	Op     mpisim.Op // OpNone on an enter or exit record
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
	trace *RankTrace
	// lastCtx is the context last entered; the root (a rank's context
	// before its first vertex) counts as never entered.
	lastCtx mpisim.Ctx
}

// New creates a tracer for one rank.
func New(rank int) *Tracer {
	return &Tracer{trace: &RankTrace{Rank: rank}}
}

// Trace returns the collected records.
func (tr *Tracer) Trace() *RankTrace { return tr.trace }

// Advance logs region enter/exit transitions around every attribution
// context switch, like compiler-instrumented Score-P regions.
func (tr *Tracer) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx mpisim.Ctx, pmu machine.Vec) float64 {
	if kind == mpisim.AdvPerturb {
		return 0
	}
	if ctx == tr.lastCtx {
		return 0
	}
	var owed float64
	if tr.lastCtx != mpisim.Ctx(psg.VIDRoot) {
		tr.trace.Records = append(tr.trace.Records, Record{T: from, Kind: RecExit, Vertex: psg.VID(tr.lastCtx), Peer: -1, Dep: -1})
		owed += eventCost
	}
	tr.trace.Records = append(tr.trace.Records, Record{T: from, Kind: RecEnter, Vertex: psg.VID(ctx), Peer: -1, Dep: -1})
	owed += eventCost
	tr.lastCtx = ctx
	return owed
}

// MPIEvent logs one communication record.
func (tr *Tracer) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	tr.trace.Records = append(tr.trace.Records, Record{
		T:      ev.TEnd,
		Kind:   RecComm,
		Op:     ev.Op,
		Vertex: psg.VID(ev.Ctx),
		Peer:   ev.Peer,
		Tag:    ev.Tag,
		Bytes:  ev.Bytes,
		Wait:   ev.Wait,
		Dep:    ev.DepRank,
	})
	return eventCost
}

var _ mpisim.AdvanceObserver = (*Tracer)(nil)
