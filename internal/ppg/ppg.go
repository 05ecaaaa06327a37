// Package ppg assembles the Program Performance Graph (paper §III-C): the
// per-process PSG is replicated across all ranks, each vertex carries the
// performance vector profiling collected on that rank, and inter-process
// communication dependence edges connect the vertices that waited to the
// vertices that kept them waiting.
//
// Storage is columnar (ISSUE 2, DESIGN.md §7): all per-vertex, per-rank
// performance vectors live in one contiguous block indexed
// [int(vid)*NP + rank], one allocation per scale instead of one map row
// per vertex, and dependence edges are keyed by interned psg.VID.
package ppg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"scalana/internal/fit"
	"scalana/internal/machine"
	"scalana/internal/prof"
	"scalana/internal/psg"
)

// EdgeFrom addresses the waiting side of a dependence edge: one vertex on
// one rank.
type EdgeFrom struct {
	VID  psg.VID
	Rank int
}

// DepEdge is one aggregated inter-process dependence edge: operations at
// (VID, Rank) waited TotalWait seconds in total on PeerRank, whose
// responsible code was PeerVID.
type DepEdge struct {
	PeerRank   int
	PeerVID    psg.VID
	Op         string
	Count      int64
	Bytes      float64
	TotalWait  float64
	MaxWait    float64
	Collective bool
}

// Graph is a Program Performance Graph for one job scale.
type Graph struct {
	PSG *psg.Graph
	NP  int
	// Perf is the columnar performance block: the vector profiling
	// collected for vertex vid on rank r is Perf[int(vid)*NP + r],
	// zero-valued where the rank never sampled the vertex. Use PerfAt /
	// TimeSeries / PMUSeries unless iterating the whole block.
	Perf []prof.PerfData
	// present[vid] records whether any rank attributed data to vid — the
	// equivalent of key presence in the old per-vertex map.
	present []bool
	// Edges holds inter-process dependence edges grouped by waiting side.
	Edges map[EdgeFrom][]*DepEdge
	// RankTime is each rank's total sampled time.
	RankTime []float64
	// Storage is the summed profile storage across ranks (bytes).
	Storage int64
}

// keyOf renders a VID through a symbol-table snapshot, with psg.VIDNone
// (and anything else out of range) as the empty string — the exact string
// the pre-VID representation stored for "no responsible vertex".
func keyOf(keys []string, vid psg.VID) string {
	if int(vid) >= len(keys) {
		return ""
	}
	return keys[vid]
}

// MaxNP is the largest job scale Decode sizes a graph for and the largest
// the service simulates: eight times the np=8192 CI smoke, at which the
// np*NumVIDs*56 B columnar block of the largest bundled graph (zeusmp, 31
// vertices) is 108 MB — a CI box holds it.
const MaxNP = 1 << 16

// NPError is a rank that belongs to a job of another size than the graph
// is being assembled for.
type NPError struct{ Rank, NP, Want int }

func (e *NPError) Error() string {
	return fmt.Sprintf("ppg: profile for rank %d has np=%d, want %d", e.Rank, e.NP, e.Want)
}

// The edge and bucket arenas grow by whole chunks, never by moving (a
// bucket holds *DepEdge), in size classes that double from minChunk to
// their cap and stay there. The caps are small on purpose — DESIGN.md §7,
// "why the arena's chunks are small".
const (
	minChunk     = 8
	maxEdgeChunk = 64
	maxPtrChunk  = 512
)

// carve returns n fresh slots from an arena's open chunk, opening the
// next chunk when they do not fit.
func carve[T any](open *[]T, n, most int) []T {
	at := len(*open)
	if at+n > cap(*open) {
		*open, at = make([]T, 0, max(n, minChunk, min(most, 2*cap(*open)))), 0
	}
	*open = (*open)[:at+n]
	return (*open)[at : at+n : at+n]
}

// Builder assembles a Graph one rank at a time: Add folds a rank straight
// into the columnar block and the graph-wide edge arena and keeps nothing
// of it, so the rank may be the wire reader's scratch (it is a
// prof.RankSink). The block is sized once, at the first rank, and every
// check Build's callers rely on is made as ranks arrive: each rank of the
// job exactly once, all of one np, communication records in canonical
// order, nothing indexed outside the symbol table.
type Builder struct {
	g  *psg.Graph
	pg *Graph
	// np is the job size: given (a stored set's key, a slice's length) or,
	// when zero, the first rank's; above limit it is refused unallocated.
	np, limit int
	seen      []bool
	ranks     int
	// keys and order are the symbol table and one key-sorted VID order for
	// the whole build.
	keys  []string
	order []psg.VID
	// edges and ptrs are the open chunks of the two arenas; run and from
	// are one rank's edges and their waiting vertices, reused.
	edges []DepEdge
	ptrs  []*DepEdge
	run   []*DepEdge
	from  []psg.VID
}

// NewBuilder starts a graph of np ranks over g, or — np zero — of as many
// as the first rank added says, which limit bounds: the caller passes what
// its input has paid for.
func NewBuilder(g *psg.Graph, np, limit int) *Builder {
	return &Builder{g: g, np: np, limit: limit}
}

// start sizes the graph: ONE block for the whole scale.
func (b *Builder) start(np int) error {
	if np < 1 || np > b.limit {
		return fmt.Errorf("ppg: np=%d is outside 1..%d, the most ranks the input could hold (MaxNP at most)", np, b.limit)
	}
	nv := b.g.NumVIDs()
	b.np, b.seen = np, make([]bool, np)
	b.pg = &Graph{
		PSG:      b.g,
		NP:       np,
		Perf:     make([]prof.PerfData, nv*np),
		present:  make([]bool, nv),
		RankTime: make([]float64, np),
	}
	b.keys = b.g.Keys()
	b.order = make([]psg.VID, nv)
	for i := range b.order {
		b.order[i] = psg.VID(i)
	}
	slices.SortFunc(b.order, func(x, y psg.VID) int { return cmp.Compare(b.keys[x], b.keys[y]) })
	return nil
}

// Reset forgets every rank added — the wire reader met a second
// "profiles" field, which replaces the first — at the cost of what was
// added, not of the block: the sizing stands.
func (b *Builder) Reset() {
	if b.ranks == 0 {
		return
	}
	pg := b.pg
	for r, seen := range b.seen {
		if seen {
			for vid := range pg.present {
				pg.Perf[vid*pg.NP+r] = prof.PerfData{}
			}
			b.seen[r], pg.RankTime[r] = false, 0
		}
	}
	clear(pg.present)
	clear(pg.Edges)
	pg.Storage, b.ranks = 0, 0
}

// Add folds one rank into the graph.
func (b *Builder) Add(rp *prof.RankProfile) error {
	if b.pg == nil {
		if err := b.start(cmp.Or(b.np, rp.NP)); err != nil {
			return err
		}
	}
	pg, np := b.pg, b.np
	switch {
	case rp.NP != np:
		return &NPError{Rank: rp.Rank, NP: rp.NP, Want: np}
	case rp.Rank < 0 || rp.Rank >= np:
		return fmt.Errorf("ppg: profile rank %d out of range", rp.Rank)
	case b.seen[rp.Rank]:
		return fmt.Errorf("ppg: duplicate profile for rank %d", rp.Rank)
	// VIDs are dense per graph instance: a profile collected against a
	// different graph would attribute every sample to the wrong vertex
	// without this check (string keys were immune to that mixup).
	case rp.Graph != nil && rp.Graph != b.g:
		return fmt.Errorf("ppg: profile for rank %d was collected against a different graph", rp.Rank)
	case len(rp.Vertex) > len(pg.present):
		return fmt.Errorf("ppg: profile for rank %d indexes %d vertices, symbol table has %d", rp.Rank, len(rp.Vertex), len(pg.present))
	}
	// Aggregation below sums records in the canonical order rp.Comm is
	// kept in — verified here rather than re-derived.
	if err := rp.CheckComm(b.keys); err != nil {
		return fmt.Errorf("ppg: %w", err)
	}
	b.seen[rp.Rank] = true
	b.ranks++
	pg.Storage += rp.StorageBytes()
	// Floating-point sums must not depend on storage order, or "identical
	// profiles in, identical graph out" breaks in the last ulp: reduce in
	// the fixed key-sorted order.
	var time float64
	for _, vid := range b.order {
		if pd := rp.PerfAt(vid); pd != nil {
			time += pd.Time
			pg.present[vid] = true
			pg.Perf[int(vid)*np+rp.Rank] = *pd
		}
	}
	pg.RankTime[rp.Rank] = time

	// Aggregate dependence edges per (vertex, op, peer rank, peer vertex).
	// The canonical order's sort key starts with exactly those fields, so
	// the records of one edge form a contiguous run and the edges of one
	// waiting vertex a contiguous run of runs: a linear scan into the arena.
	b.run, b.from = slices.Grow(b.run[:0], len(rp.Comm)), slices.Grow(b.from[:0], len(rp.Comm))
	var last *prof.CommRecord
	var e *DepEdge
	for j := range rp.Comm {
		rec := &rp.Comm[j]
		if rec.DepRank < 0 {
			continue
		}
		if last == nil || last.VID != rec.VID || last.Op != rec.Op ||
			last.DepRank != rec.DepRank || last.DepVID != rec.DepVID {
			e = &carve(&b.edges, 1, maxEdgeChunk)[0]
			*e = DepEdge{PeerRank: rec.DepRank, PeerVID: rec.DepVID, Op: rec.Op, Collective: rec.Collective}
			b.run, b.from = append(b.run, e), append(b.from, rec.VID)
		}
		last = rec
		e.Count += rec.Count
		e.Bytes += rec.Bytes * float64(rec.Count)
		e.TotalWait += rec.TotalWait
		if rec.MaxWait > e.MaxWait {
			e.MaxWait = rec.MaxWait
		}
	}
	if pg.Edges == nil {
		// Sized once, for as many buckets a rank as the first has edges: a
		// rank has at most one bucket a vertex, so the map never has more
		// entries than the block has cells, and growing it by rehashing was
		// half of Build.
		pg.Edges = make(map[EdgeFrom][]*DepEdge, np*min(len(b.run), len(pg.present)))
	}
	// A (vertex, rank) bucket belongs to one rank, so it is final here.
	// Deterministic edge ordering: heaviest wait first, with a total
	// tiebreak (on interned key strings, matching the pre-VID order) so
	// equal-wait edges order identically on every build.
	for start := 0; start < len(b.run); {
		end := start + 1
		for end < len(b.run) && b.from[end] == b.from[start] {
			end++
		}
		bucket := carve(&b.ptrs, end-start, maxPtrChunk)
		if copy(bucket, b.run[start:end]) > 1 {
			slices.SortFunc(bucket, b.heavierFirst)
		}
		pg.Edges[EdgeFrom{VID: b.from[start], Rank: rp.Rank}] = bucket
		start = end
	}
	return nil
}

func (b *Builder) heavierFirst(x, y *DepEdge) int {
	return cmp.Or(
		cmp.Compare(y.TotalWait, x.TotalWait),
		cmp.Compare(x.PeerRank, y.PeerRank),
		cmp.Compare(keyOf(b.keys, x.PeerVID), keyOf(b.keys, y.PeerVID)),
		cmp.Compare(x.Op, y.Op))
}

// Finish returns the graph once every rank of the job has been added.
func (b *Builder) Finish() (*Graph, error) {
	switch {
	case b.ranks == 0:
		return nil, fmt.Errorf("ppg: no profiles")
	case b.ranks != b.np:
		return nil, fmt.Errorf("ppg: got %d profiles for np=%d", b.ranks, b.np)
	}
	return b.pg, nil
}

// Build assembles the PPG from the PSG and all rank profiles. It is a
// serial loop: a rank's fold is a few microseconds of copying, less than
// handing it to another CPU cost (DESIGN.md §7).
func Build(g *psg.Graph, profiles []*prof.RankProfile) (*Graph, error) {
	if n := len(profiles); n > 0 && profiles[0].NP != n {
		return nil, fmt.Errorf("ppg: got %d profiles for np=%d", n, profiles[0].NP)
	}
	b := NewBuilder(g, len(profiles), len(profiles))
	for _, rp := range profiles {
		if err := b.Add(rp); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// Decode reads profile-set wire bytes straight into a graph — the one
// spelling of "decode, then build" behind every stored-set query, a
// profiles directory, baseline ingestion and the upload check, so an
// upload is validated by exactly what later reads it. np sizes the block
// (a stored set's key; every rank must agree); zero takes the first
// rank's. Either way it is refused before anything is allocated when it
// exceeds MaxNP or what the bytes could hold: a rank object costs at
// least 8. The returned set is the envelope (app, np, elapsed).
func Decode(data []byte, g *psg.Graph, np int) (*Graph, prof.ProfileSet, error) {
	b := NewBuilder(g, np, min(MaxNP, len(data)/8))
	set, err := prof.ReadProfileSet(data, g, b)
	if err != nil {
		return nil, set, err
	}
	pg, err := b.Finish()
	return pg, set, err
}

// NumVIDs returns the size of the symbol table this graph's columnar
// block is laid out for.
func (pg *Graph) NumVIDs() int { return len(pg.present) }

// Present reports whether any rank attributed performance data to the
// vertex.
func (pg *Graph) Present(vid psg.VID) bool {
	return int(vid) < len(pg.present) && pg.present[vid]
}

// PresentVIDs returns, in ascending VID order, the vertices at least one
// rank attributed data to.
func (pg *Graph) PresentVIDs() []psg.VID {
	var out []psg.VID
	for vid, ok := range pg.present {
		if ok {
			out = append(out, psg.VID(vid))
		}
	}
	return out
}

// PerfAt returns the performance vector of one vertex on one rank (the
// zero value when never sampled or out of range).
func (pg *Graph) PerfAt(vid psg.VID, rank int) prof.PerfData {
	if int(vid) >= pg.NumVIDs() || rank < 0 || rank >= pg.NP {
		return prof.PerfData{}
	}
	return pg.Perf[int(vid)*pg.NP+rank]
}

// row returns the contiguous per-rank slice of one vertex, or nil when
// the VID is out of range.
func (pg *Graph) row(vid psg.VID) []prof.PerfData {
	if int(vid) >= pg.NumVIDs() {
		return nil
	}
	return pg.Perf[int(vid)*pg.NP : (int(vid)+1)*pg.NP]
}

// TimeSeries returns the per-rank sampled time of one vertex (length NP,
// zeros where the vertex never ran).
func (pg *Graph) TimeSeries(vid psg.VID) []float64 {
	out := make([]float64, pg.NP)
	for r, pd := range pg.row(vid) {
		out[r] = pd.Time
	}
	return out
}

// Merged is one vertex's per-rank time merged across ranks, NaN where no
// rank sampled it: the one reduction behind detect's cross-scale fit and
// a baseline sample.
func (pg *Graph) Merged(vid psg.VID) float64 {
	if !pg.Present(vid) {
		return math.NaN()
	}
	return fit.Merge(pg.TimeSeries(vid))
}

// PMUSeries returns one counter's per-rank values for a vertex (the data
// behind the paper's Figs. 15 and 16).
func (pg *Graph) PMUSeries(vid psg.VID, c machine.Counter) []float64 {
	out := make([]float64, pg.NP)
	for r, pd := range pg.row(vid) {
		out[r] = pd.PMU[c]
	}
	return out
}

// TotalTime is the summed sampled time across ranks.
func (pg *Graph) TotalTime() float64 {
	var s float64
	for _, t := range pg.RankTime {
		s += t
	}
	return s
}

// BestEdge returns the dominant dependence edge out of (vid, rank): the
// one with the largest total waiting time, or nil. Edges whose waiting
// time never reached waitEps are ignored — the paper's search-space
// pruning ("we only preserve the communication dependence edge if a
// waiting event exists").
func (pg *Graph) BestEdge(vid psg.VID, rank int, waitEps float64) *DepEdge {
	for _, e := range pg.Edges[EdgeFrom{VID: vid, Rank: rank}] {
		if e.MaxWait < waitEps {
			continue
		}
		return e // edges are sorted by TotalWait descending
	}
	return nil
}

// NumEdges counts all dependence edges (testing/reporting aid).
func (pg *Graph) NumEdges() int {
	n := 0
	for _, es := range pg.Edges {
		n += len(es)
	}
	return n
}
